package main

import (
	"encoding/base64"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sort"
	"time"

	canal "canalmesh"
	"canalmesh/internal/admission"
	"canalmesh/internal/l7"
	"canalmesh/internal/policy"
	"canalmesh/internal/telemetry"
	"canalmesh/internal/trace"
)

// layerStat is one replayed public function: calls, busy time per call,
// heap allocations per call, and calls whose result disagreed with the
// generated expectation.
type layerStat struct {
	calls    int64
	nsPerOp  float64
	allocs   float64
	failures int64
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// replay calls fn on consecutive input indices, in batches, until it has
// made at least minCalls calls and spent at least budget. prep, when set,
// readies each input of a batch before the batch is timed. Only fn's calls
// are timed and counted for allocations.
func replay(budget time.Duration, minCalls, batch int, prep func(i int), fn func(i int) bool) layerStat {
	for i := 0; i < min(minCalls, 32); i++ { // warm lazy state
		if prep != nil {
			prep(i)
		}
		fn(i)
	}
	var (
		st   layerStat
		busy time.Duration
		objs uint64
		i    int
	)
	end := time.Now().Add(budget)
	for i < minCalls || time.Now().Before(end) {
		if prep != nil {
			for j := 0; j < batch; j++ {
				prep(i + j)
			}
		}
		a0 := mallocs()
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			if !fn(i + j) {
				st.failures++
			}
		}
		busy += time.Since(t0)
		objs += mallocs() - a0
		i += batch
	}
	st.calls = int64(i)
	st.nsPerOp = float64(busy.Nanoseconds()) / float64(i)
	st.allocs = float64(objs) / float64(i)
	return st
}

// captureRT answers every request without sending it, keeping the request
// when asked: it isolates NodeAgent.Do's local work and yields genuinely
// signed requests for the gateway-side replays.
type captureRT struct {
	keep bool
	got  []*http.Request
}

func (c *captureRT) RoundTrip(r *http.Request) (*http.Response, error) {
	if c.keep {
		c.got = append(c.got, r)
	}
	return &http.Response{StatusCode: http.StatusOK, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: http.Header{}, Body: http.NoBody, Request: r}, nil
}

// layers is the per-layer replay result.
type layers struct {
	agentLocal, verifyPeer, auth, route, eval, configure, apply, admit, span, parse, log layerStat

	candidatesP50  int
	touchedBuckets int
	keptPer1k      float64
}

// replayTenants bounds the tenants whose captured requests feed the
// gateway-side replays, so the auth-on/auth-off gateway pair stays small.
const replayTenants = 8

// replayLayers feeds the workload's generated inputs through each layer's
// public function. It runs after the load phases: its own engine holds a
// second copy of the workload's policy.
func (m *mesh) replayLayers(budget time.Duration) (layers, error) {
	s, p := m.s, m.s.P
	share := budget / 14
	var out layers

	// canal.agent_local: NodeAgent.Do on a transport that does not send.
	rt := &captureRT{}
	client := &http.Client{Transport: rt}
	agentTracer := trace.NewLive()
	agents := make([][]*canal.NodeAgent, p.Tenants)
	for t := range agents {
		for _, a := range m.agents[t] {
			ra := canal.NewNodeAgent(a.Tenant, a.Identity, a.Gateway)
			ra.Client, ra.Tracer = client, agentTracer
			agents[t] = append(agents[t], ra)
		}
	}
	doAgent := func(rq *reqSpec) (*http.Response, error) {
		return agents[rq.Tenant][rq.Identity].Do(http.MethodGet, s.serviceName(rq.Service), rq.Path, nil, rq.Headers)
	}
	out.agentLocal = replay(share, 512, 64, nil, func(i int) bool {
		resp, err := doAgent(&s.Requests[i%len(s.Requests)])
		if err != nil {
			return false
		}
		resp.Body.Close()
		return true
	})

	// Capture signed requests of the first replayTenants tenants.
	var capSpecs []*reqSpec
	rt.keep = true
	for i := range s.Requests {
		rq := &s.Requests[i]
		if rq.Tenant >= replayTenants {
			continue
		}
		if _, err := doAgent(rq); err != nil {
			return out, fmt.Errorf("capturing signed requests: %w", err)
		}
		capSpecs = append(capSpecs, rq)
		if len(capSpecs) == 256 {
			break
		}
	}
	captured := rt.got
	rt.keep = false

	// meshcrypto.verify_peer: CA.VerifyPeer on the captured certs.
	ders := make([][]byte, len(captured))
	for i, r := range captured {
		der, err := base64.StdEncoding.DecodeString(r.Header.Get(canal.HeaderCert))
		if err != nil {
			return out, fmt.Errorf("captured cert: %w", err)
		}
		ders[i] = der
	}
	out.verifyPeer = replay(share, 256, 16, nil, func(i int) bool {
		k := i % len(ders)
		_, _, err := m.cas[capSpecs[k].Tenant].VerifyPeer(ders[k])
		return err == nil
	})

	// canal.auth: ServeHTTP on an auth-on gateway minus an otherwise
	// identical auth-off gateway, over the captured requests.
	auth, err := m.replayAuth(2*share, captured, capSpecs)
	if err != nil {
		return out, err
	}
	out.auth = auth

	// l7.route and policy.eval on a benchmark-owned engine configured like
	// the gateway's.
	eng := l7.NewEngine(s.Seed)
	for svc := 0; svc < p.Tenants*p.Services; svc++ {
		cfg := s.serviceConfig(svc, 0, p.CanaryPct, 0)
		cfg.Service = s.gatewayKey(svc)
		if err := eng.Configure(cfg); err != nil {
			return out, err
		}
	}
	reqs := make([]l7.Request, len(s.Requests))
	queries := make([]policy.Query, len(s.Requests))
	for i := range s.Requests {
		reqs[i] = s.l7Request(&s.Requests[i])
		r := &reqs[i]
		queries[i] = policy.Query{SrcTenant: r.Tenant, SrcService: r.SourceService, DstService: r.Service, Method: r.Method, Path: r.Path, Headers: r.Headers}
	}
	epoch := time.Now()
	out.route = replay(share, 4096, 512, nil, func(i int) bool {
		k := i % len(reqs)
		d, err := eng.Route(time.Since(epoch), &reqs[k])
		if s.Requests[k].Expect == http.StatusForbidden {
			return err != nil
		}
		return err == nil && d.Rule == s.Requests[k].Rule
	})
	pol := eng.Policy()
	out.eval = replay(share, 4096, 512, nil, func(i int) bool {
		k := i % len(queries)
		return pol.Eval(queries[k]).Allowed == (s.Requests[k].Expect != http.StatusForbidden)
	})
	cands := make([]int, min(len(queries), 4096))
	for i := range cands {
		cands[i] = pol.CandidateRules(queries[i])
	}
	sort.Ints(cands)
	out.candidatesP50 = cands[len(cands)/2]

	// l7.configure: Engine.Configure on the churn updates.
	cfgs := map[int]l7.ServiceConfig{}
	out.configure = replay(share, 64, 16, func(i int) {
		u := s.Updates[i%len(s.Updates)]
		cfg := s.serviceConfig(u.Service, int64(i+1), u.CanaryPct, u.FillerEpoch)
		cfg.Service = s.gatewayKey(u.Service)
		cfgs[i] = cfg
	}, func(i int) bool {
		err := eng.Configure(cfgs[i])
		delete(cfgs, i)
		return err == nil
	})

	// policy.apply: Compiler.Apply replacing one service's authz
	// intentions, cycling over the first services the updates touch.
	var churned []int
	seen := map[int]bool{}
	for _, u := range s.Updates {
		if !seen[u.Service] && len(churned) < 16 {
			seen[u.Service] = true
			churned = append(churned, u.Service)
		}
	}
	installed := map[int][]string{}
	type change struct {
		svc     int
		upserts []policy.Intention
	}
	changes := map[int]change{}
	var touched []int
	out.apply = replay(share, 64, 16, func(i int) {
		u := s.Updates[i%len(s.Updates)]
		svc := churned[i%len(churned)]
		changes[i] = change{svc, s.intentions(svc, u.FillerEpoch, i)}
	}, func(i int) bool {
		c := changes[i]
		delete(changes, i)
		ids := make([]string, len(c.upserts))
		for k := range c.upserts {
			ids[k] = c.upserts[k].ID
		}
		st, err := pol.Apply(installed[c.svc], c.upserts)
		installed[c.svc] = ids
		touched = append(touched, st.TouchedBuckets)
		return err == nil
	})
	sort.Ints(touched)
	out.touchedBuckets = touched[len(touched)/2]

	// admission.admit: HTTPController.Admit plus release.
	ctl := admission.NewHTTPController(admissionConfig())
	out.admit = replay(share, 4096, 512, nil, func(i int) bool {
		rq := &s.Requests[i%len(s.Requests)]
		release, rej := ctl.Admit(tenantName(rq.Tenant), s.serviceName(rq.Service), false)
		if rej != nil {
			return false
		}
		release(true)
		return true
	})

	// trace.span and trace.parse on the captured traceparents.
	tps := make([]string, len(captured))
	names := make([]string, len(captured))
	for i, r := range captured {
		tps[i] = r.Header.Get(trace.TraceparentHeader)
		names[i] = r.Method + " " + r.URL.Path
	}
	type remote struct {
		id      trace.TraceID
		parent  trace.SpanID
		sampled bool
	}
	remotes := make([]remote, len(tps))
	for i, tp := range tps {
		id, parent, sampled, err := trace.ParseTraceparent(tp)
		if err != nil {
			return out, fmt.Errorf("captured traceparent %q: %w", tp, err)
		}
		remotes[i] = remote{id, parent, sampled}
	}
	tracer := trace.NewLive()
	out.span = replay(share, 4096, 512, nil, func(i int) bool {
		k := i % len(remotes)
		r := remotes[k]
		tr := tracer.StartRemoteTenant(r.id, r.parent, r.sampled, "gateway", tenantName(capSpecs[k].Tenant), names[k])
		start := tracer.Now()
		tr.AddHop(trace.Hop{Name: "gateway/upstream", Start: start, End: tracer.Now()})
		tracer.Finish(tr, http.StatusOK)
		return true
	})
	out.parse = replay(share, 4096, 512, nil, func(i int) bool {
		_, _, _, err := trace.ParseTraceparent(tps[i%len(tps)])
		return err == nil
	})
	fresh := trace.NewLive()
	for i := 0; i < 1000; i++ {
		fresh.Finish(fresh.StartTenant("gateway", tenantName(capSpecs[i%len(capSpecs)].Tenant), names[i%len(names)]), http.StatusOK)
	}
	out.keptPer1k = float64(len(fresh.Kept()) + len(fresh.Tail()))

	// telemetry.log: AccessLog.Log on a log bounded like the gateway's.
	alog := &telemetry.AccessLog{}
	alog.SetCapacity(65536)
	entries := make([]telemetry.AccessEntry, len(reqs))
	for i := range reqs {
		r := &reqs[i]
		entries[i] = telemetry.AccessEntry{At: time.Duration(i) * time.Microsecond, Layer: telemetry.AccessL7, Where: "gateway",
			Tenant: r.Tenant, Service: s.serviceName(s.Requests[i].Service), SrcPod: r.SourceService, Method: r.Method, Path: r.Path,
			Status: s.Requests[i].Expect, Latency: 300 * time.Microsecond, TraceID: remotes[i%len(remotes)].id.String()}
	}
	out.log = replay(share, 4096, 512, nil, func(i int) bool {
		alog.Log(entries[i%len(entries)])
		return true
	})
	return out, nil
}

// replayAuth times GatewayServer.ServeHTTP on captured signed requests
// against an auth-on and an auth-off gateway that are otherwise identical,
// alternating blocks so drift affects both sides alike. Both gateways carry
// the workload's service configs without upstream pools, so every request
// ends in the same local answer (503, or 403 for a deny probe) with no
// network hop, and the difference is authentication alone. Failures are the
// captured requests the auth-on gateway refuses; only requests both
// gateways answer alike are timed.
func (m *mesh) replayAuth(budget time.Duration, captured []*http.Request, specs []*reqSpec) (layerStat, error) {
	s, p := m.s, m.s.P
	mk := func(auth bool) (*canal.GatewayServer, error) {
		g := canal.NewGatewayServer(s.Seed)
		g.RequireAuth = auth
		if p.Admission {
			g.EnableAdmission(admissionConfig())
		}
		for t := 0; t < min(p.Tenants, replayTenants); t++ {
			g.RegisterTenant(tenantName(t), m.cas[t])
			for k := 0; k < p.Services; k++ {
				svc := t*p.Services + k
				if err := g.ConfigureService(tenantName(t), s.serviceConfig(svc, 0, p.CanaryPct, 0), nil); err != nil {
					return nil, err
				}
			}
		}
		return g, nil
	}
	on, err := mk(true)
	if err != nil {
		return layerStat{}, err
	}
	off, err := mk(false)
	if err != nil {
		return layerStat{}, err
	}
	serve := func(g *canal.GatewayServer, r *http.Request) int {
		w := httptest.NewRecorder()
		g.ServeHTTP(w, r)
		return w.Code
	}
	var st layerStat
	var keep []*http.Request
	for _, r := range captured {
		a, b := serve(on, r), serve(off, r)
		if a == http.StatusForbidden && b != http.StatusForbidden {
			st.failures++
		}
		if a == b {
			keep = append(keep, r)
		}
	}
	if len(keep) == 0 {
		return st, nil
	}
	var busy [2]time.Duration
	var objs [2]uint64
	calls := 0
	end := time.Now().Add(budget)
	for calls == 0 || time.Now().Before(end) {
		for side, g := range []*canal.GatewayServer{on, off} {
			a0 := mallocs()
			t0 := time.Now()
			for _, r := range keep {
				serve(g, r)
			}
			busy[side] += time.Since(t0)
			objs[side] += mallocs() - a0
		}
		calls += len(keep)
	}
	st.calls = int64(calls)
	st.nsPerOp = float64((busy[0] - busy[1]).Nanoseconds()) / float64(calls)
	st.allocs = (float64(objs[0]) - float64(objs[1])) / float64(calls)
	return st, nil
}

// l7Request renders a generated request the way the gateway presents it to
// l7.Engine.Route: decoded path, flattened headers, parsed cookies, and the
// source named by the agent's identity.
func (s *spec) l7Request(rq *reqSpec) l7.Request {
	path := rq.Path
	if u, err := url.Parse(rq.Path); err == nil {
		path = u.Path
	}
	h := http.Header{}
	for k, v := range rq.Headers {
		h.Set(k, v)
	}
	h.Set(canal.HeaderTenant, tenantName(rq.Tenant))
	h.Set(canal.HeaderService, s.serviceName(rq.Service))
	h.Set(canal.HeaderSource, identityShort(rq.Tenant, rq.Identity))
	flat := make(map[string]string, len(h))
	for k, v := range h {
		flat[k] = v[0]
	}
	cookies := map[string]string{}
	for _, c := range (&http.Request{Header: h}).Cookies() {
		cookies[c.Name] = c.Value
	}
	return l7.Request{
		Tenant:        tenantName(rq.Tenant),
		Service:       s.gatewayKey(rq.Service),
		SourceService: identityShort(rq.Tenant, rq.Identity),
		Method:        http.MethodGet,
		Path:          path,
		Headers:       flat,
		Cookies:       cookies,
	}
}

// intentions renders a service's authz rules at a filler epoch as policy
// intentions under the benchmark's own ID namespace (version v keeps IDs
// of successive replacements distinct).
func (s *spec) intentions(svc, fillerEpoch, v int) []policy.Intention {
	cfg := s.serviceConfig(svc, 0, s.P.CanaryPct, fillerEpoch)
	key := s.gatewayKey(svc)
	out := make([]policy.Intention, len(cfg.Authz))
	for k, a := range cfg.Authz {
		in := policy.Intention{
			ID:     fmt.Sprintf("bench/%s/%d/%d", key, v, k),
			Name:   a.Name,
			Src:    toPolicy(a.SourceService),
			Dst:    policy.Exact(key),
			Method: toPolicy(a.Method),
			Path:   toPolicy(a.Path),
			Action: policy.ActionAllow,
		}
		if a.Action == canal.AuthzDeny {
			in.Action = policy.ActionDeny
		}
		out[k] = in
	}
	return out
}

func toPolicy(m l7.StringMatch) policy.Match {
	switch m.Kind {
	case l7.MatchExact:
		return policy.Exact(m.Value)
	case l7.MatchPrefix:
		return policy.Prefix(m.Value)
	case l7.MatchRegex:
		return policy.Regex(m.Value)
	case l7.MatchPresent:
		return policy.Present()
	default:
		return policy.Any()
	}
}
