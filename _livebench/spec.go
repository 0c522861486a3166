package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/url"
	"strconv"
)

// params fixes the shape of one workload. Everything a run sends or
// configures is generated from params plus the run's seed (see newSpec).
type params struct {
	Name          string
	Tenants       int
	Services      int // per tenant
	Identities    int // per tenant; with DenyEvery > 0 the last one is the deny-probe identity
	FillerAuthz   int // extra authz rules per service beyond the identity rules
	RequireAuth   bool
	Admission     bool
	RichRoutes    bool // header + regex cookie + path-prefix rule ahead of a catch-all
	BodyBytes     int
	CanaryPct     int
	QueryEvery    int     // about 1 in N requests carries a query string (0 = never)
	EscapeEvery   int     // about 1 in N requests has a percent-escaped path
	DenyEvery     int     // about 1 in N requests comes from the deny-probe identity
	NoCookieEvery int     // about 1 in N requests misses the routing cookie (rich routes only)
	Conns         int     // closed-loop load goroutines, one client connection each
	PacedRPS      float64 // offered rate of the open-loop phase, sent from Conns goroutines
	ChurnPerSec   float64 // ConfigureService updates per second beside the load (0 = none)
}

var workloads = map[string]params{
	"signed-small": {
		Name: "signed-small", Tenants: 8, Services: 2, Identities: 4, FillerAuthz: 0,
		RequireAuth: true, BodyBytes: 2, CanaryPct: 10,
		QueryEvery: 10, EscapeEvery: 50,
		Conns: 2, PacedRPS: 600,
	},
	"tenant-scale": {
		Name: "tenant-scale", Tenants: 200, Services: 2, Identities: 4, FillerAuthz: 246,
		Admission: true, RichRoutes: true, BodyBytes: 16 << 10, CanaryPct: 10,
		DenyEvery: 50, NoCookieEvery: 10,
		Conns: 2, PacedRPS: 800,
	},
	"config-churn": {
		Name: "config-churn", Tenants: 200, Services: 2, Identities: 4, FillerAuthz: 246,
		Admission: true, RichRoutes: true, BodyBytes: 16 << 10, CanaryPct: 10,
		DenyEvery: 50, NoCookieEvery: 10,
		Conns: 1, PacedRPS: 400, ChurnPerSec: 20,
	},
}

// Request kinds. Every kind except kindDeny expects a 200.
const (
	kindPlain   = "plain"
	kindQuery   = "query"
	kindEscaped = "escaped"
	kindDeny    = "deny"
)

// Upstream subsets of every service.
const (
	subsetStable = "v1"
	subsetCanary = "canary"
)

// Rule names of every service's route table.
const (
	ruleCanary  = "canary"
	ruleDefault = "default"
)

// Benchmark-owned headers. The gateway forwards them untouched; the
// upstream echoes what it saw so the client can check the route.
const (
	hdrGen     = "X-Bench-Gen"     // SetHeaders value installed by each config generation
	hdrLane    = "X-Bench-Lane"    // matched by the rich route rule
	hdrReq     = "X-Bench-Req"     // request ID joining the spans of one request
	hdrSubset  = "X-Bench-Subset"  // upstream echo of the subset it was sent
	hdrEchoGen = "X-Bench-Got-Gen" // upstream echo of the generation header it saw
)

// reqSpec is one generated request.
type reqSpec struct {
	Tenant   int               `json:"tenant"`
	Identity int               `json:"identity"`
	Service  int               `json:"service"` // global service index
	Path     string            `json:"path"`    // as the agent is asked to send it
	Headers  map[string]string `json:"headers"`
	Kind     string            `json:"kind"`
	Rule     string            `json:"rule"` // route rule the request should match
	Expect   int               `json:"expect"`
}

// updateSpec is one generated config-churn update.
type updateSpec struct {
	Service     int `json:"service"`
	CanaryPct   int `json:"canary_pct"`
	FillerEpoch int `json:"filler_epoch"` // renames every filler authz rule
}

// spec is the complete generated input of one run.
type spec struct {
	P        params       `json:"params"`
	Seed     int64        `json:"seed"`
	Requests []reqSpec    `json:"requests"`
	Updates  []updateSpec `json:"updates"`
	// Tags are the per-route body prefixes: route r, subset s at
	// Tags[2*r+s]. BodyBase fills the rest of every body.
	Tags     [][]byte `json:"tags"`
	BodyBase []byte   `json:"body_base"`
}

// Generated stream lengths: the load cycles through them.
const (
	numRequests = 8192
	numUpdates  = 512
	tagBytes    = 8
)

func newSpec(p params, seed int64) *spec {
	rng := rand.New(rand.NewSource(seed))
	s := &spec{P: p, Seed: seed}
	routes := p.Tenants * p.Services
	s.Tags = make([][]byte, 2*routes)
	for i := range s.Tags {
		s.Tags[i] = make([]byte, tagBytes)
		binary.LittleEndian.PutUint64(s.Tags[i], rng.Uint64())
	}
	s.BodyBase = make([]byte, max(p.BodyBytes, tagBytes))
	rng.Read(s.BodyBase)

	legit := p.Identities
	if p.DenyEvery > 0 {
		legit--
	}
	s.Requests = make([]reqSpec, numRequests)
	for i := range s.Requests {
		t := rng.Intn(p.Tenants)
		r := reqSpec{
			Tenant:   t,
			Identity: rng.Intn(legit),
			Service:  t*p.Services + rng.Intn(p.Services),
			Kind:     kindPlain,
			Rule:     ruleCanary,
			Expect:   200,
			Headers:  map[string]string{},
		}
		item := rng.Intn(100000)
		r.Path = "/api/items/" + strconv.Itoa(item)
		switch {
		case p.DenyEvery > 0 && rng.Intn(p.DenyEvery) == 0:
			r.Kind, r.Identity, r.Expect = kindDeny, p.Identities-1, 403
		case p.QueryEvery > 0 && rng.Intn(p.QueryEvery) == 0:
			r.Kind = kindQuery
			r.Path += "?page=" + strconv.Itoa(rng.Intn(50)) + "&sort=asc"
		case p.EscapeEvery > 0 && rng.Intn(p.EscapeEvery) == 0:
			r.Kind = kindEscaped
			r.Path = "/api/items%20v2/" + url.PathEscape(fmt.Sprintf("n %d", item))
		}
		if p.RichRoutes {
			r.Headers[hdrLane] = "blue"
			if p.NoCookieEvery > 0 && rng.Intn(p.NoCookieEvery) == 0 {
				r.Rule = ruleDefault
			} else {
				r.Headers["Cookie"] = "session=u" + strconv.Itoa(rng.Intn(1e6)) + "; theme=dark"
			}
		}
		s.Requests[i] = r
	}
	s.Updates = make([]updateSpec, numUpdates)
	for i := range s.Updates {
		s.Updates[i] = updateSpec{
			Service:     rng.Intn(routes),
			CanaryPct:   p.CanaryPct - 2 + rng.Intn(5),
			FillerEpoch: i + 1,
		}
	}
	return s
}

// Naming. Identities are SPIFFE-style; the gateway and the authz rules see
// the last path element.
func tenantName(t int) string { return fmt.Sprintf("t%03d", t) }

func (s *spec) serviceName(svc int) string { return fmt.Sprintf("s%d", svc%s.P.Services) }

func (s *spec) tenantOf(svc int) int { return svc / s.P.Services }

func identityShort(t, k int) string { return fmt.Sprintf("%s-id%d", tenantName(t), k) }

func identityURI(t, k int) string {
	return fmt.Sprintf("spiffe://%s.bench/sa/%s", tenantName(t), identityShort(t, k))
}

// gatewayKey is how the gateway names a tenant's service inside its shared
// engine (tenant + "/" + service).
func (s *spec) gatewayKey(svc int) string {
	return tenantName(s.tenantOf(svc)) + "/" + s.serviceName(svc)
}

// body returns the exact bytes the upstream serves for a route and subset.
func (s *spec) body(svc, subset int) (tag, rest []byte) {
	n := s.P.BodyBytes
	tag = s.Tags[2*svc+subset]
	if n <= tagBytes {
		return tag[:n], nil
	}
	return tag, s.BodyBase[tagBytes:n]
}

func subsetIndex(name string) int {
	if name == subsetCanary {
		return 1
	}
	return 0
}
