package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	canal "canalmesh"
	"canalmesh/internal/admission"
	"canalmesh/internal/trace"
)

// mesh is one provisioned live mesh: NodeAgents -> GatewayServer -> the
// benchmark's upstream, all in this process over loopback.
type mesh struct {
	s     *spec
	gw    *canal.GatewayServer
	gwSrv *httptest.Server
	upSrv *httptest.Server
	pools map[string][]string
	cas   []*canal.CA
	// agents[t][k] fronts tenant t's identity k on the shared load client.
	agents [][]*canal.NodeAgent
	// probeAgents[t] sends the churn writer's read-after-write checks on a
	// client of its own, beside the load connections.
	probeAgents []*canal.NodeAgent
	clients     []*http.Client
	svcIndex    map[string]int // gateway key -> global service index
	svc         []svcState
	gen         atomic.Int64 // last config generation handed out

	next    atomic.Int64 // cursor into the generated request stream
	done    atomic.Int64 // requests the load workers answered correctly
	reqSeq  atomic.Int64 // request IDs of traced requests
	spans   *spanLog     // nil unless the run traces
	gwConns atomic.Int64 // connections accepted by the gateway listener
	upConns atomic.Int64 // connections accepted by the upstream listener

	plantWrongBody bool
	upServed       atomic.Int64

	wrongMu sync.Mutex
	wrongs  []string // oracle violations: any one makes the run incorrect
}

// svcState tracks one service's config generations so the oracle can check
// read-after-write on SetHeaders.
type svcState struct {
	applied atomic.Int64 // generation of the last ConfigureService that returned
	pending atomic.Int64 // generation of the latest ConfigureService that started
	canary  atomic.Int64 // canary weight of the applied generation, percent
}

// serviceConfig renders one service's configuration at a generation.
func (s *spec) serviceConfig(svc int, gen int64, canaryPct, fillerEpoch int) canal.ServiceConfig {
	p := s.P
	t := s.tenantOf(svc)
	genHdr := map[string]string{hdrGen: strconv.FormatInt(gen, 10)}
	splits := []canal.Split{{Subset: subsetStable, Weight: 100 - canaryPct}, {Subset: subsetCanary, Weight: canaryPct}}
	cfg := canal.ServiceConfig{Service: s.serviceName(svc), DefaultSubset: subsetStable}
	if p.RichRoutes {
		cfg.Rules = []canal.Rule{
			{
				Name: ruleCanary,
				Match: canal.RouteMatch{
					Path:    canal.Prefix("/api/"),
					Headers: []canal.KVMatch{{Name: hdrLane, Match: canal.Exact("blue")}},
					Cookies: []canal.KVMatch{{Name: "session", Match: canal.Regex(`^u[0-9]+$`)}},
				},
				Splits:     splits,
				SetHeaders: genHdr,
			},
			{Name: ruleDefault, SetHeaders: genHdr},
		}
	} else {
		cfg.Rules = []canal.Rule{{Name: ruleCanary, Match: canal.RouteMatch{Path: canal.Prefix("/")}, Splits: splits, SetHeaders: genHdr}}
	}
	for k := 0; k < p.Identities; k++ {
		rule := canal.AuthzRule{Name: "allow-" + identityShort(t, k), Action: canal.AuthzAllow, SourceService: canal.Exact(identityShort(t, k))}
		if p.DenyEvery > 0 && k == p.Identities-1 {
			rule.Name, rule.Action = "deny-"+identityShort(t, k), canal.AuthzDeny
		}
		cfg.Authz = append(cfg.Authz, rule)
	}
	for k := 0; k < p.FillerAuthz; k++ {
		src := fmt.Sprintf("ext-%d-%d", fillerEpoch, k)
		rule := canal.AuthzRule{Name: "filler-" + src, Action: canal.AuthzAllow, SourceService: canal.Exact(src)}
		if k%5 == 0 {
			rule.SourceService = canal.Prefix(src + "-")
		}
		if k%3 == 0 {
			rule.Method = canal.Exact("POST")
		}
		if k%2 == 0 {
			rule.Path = canal.Prefix("/api/")
		}
		if k%7 == 0 {
			rule.Action = canal.AuthzDeny
		}
		cfg.Authz = append(cfg.Authz, rule)
	}
	return cfg
}

type setupOpts struct {
	traced         bool // wrap the gateway and upstream with span recorders
	plantWrongBody bool // self-test: the upstream corrupts one body in 97
}

// setup provisions a mesh through the public API and returns once the
// first request has been answered correctly.
func setup(s *spec, o setupOpts) (*mesh, error) {
	p := s.P
	m := &mesh{s: s, plantWrongBody: o.plantWrongBody, svcIndex: map[string]int{}}
	routes := p.Tenants * p.Services
	m.svc = make([]svcState, routes)
	for svc := 0; svc < routes; svc++ {
		m.svcIndex[s.gatewayKey(svc)] = svc
	}
	if o.traced {
		m.spans = newSpanLog()
	}

	m.upSrv = httptest.NewUnstartedServer(http.HandlerFunc(m.upstream))
	m.upSrv.Config.ConnState = countNew(&m.upConns)
	m.upSrv.Start()
	m.pools = map[string][]string{subsetStable: {m.upSrv.URL}, subsetCanary: {m.upSrv.URL}}

	m.gw = canal.NewGatewayServer(s.Seed)
	m.gw.RequireAuth = p.RequireAuth
	if p.Admission {
		m.gw.EnableAdmission(admissionConfig())
	}
	var h http.Handler = m.gw
	if o.traced {
		h = http.HandlerFunc(m.tracedGateway)
	}
	m.gwSrv = httptest.NewUnstartedServer(h)
	m.gwSrv.Config.ConnState = countNew(&m.gwConns)
	m.gwSrv.Start()

	// The load client holds at most Conns connections, the probe client one.
	load := &http.Client{Transport: &http.Transport{MaxConnsPerHost: p.Conns, MaxIdleConnsPerHost: p.Conns}}
	probe := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	m.clients = []*http.Client{load, probe}
	agentTracer := trace.NewLive()

	ids := make([][]*canal.Identity, p.Tenants)
	for t := 0; t < p.Tenants; t++ {
		ca, err := canal.NewCA(tenantName(t))
		if err != nil {
			m.close()
			return nil, err
		}
		m.cas = append(m.cas, ca)
		m.gw.RegisterTenant(tenantName(t), ca)
		for k := 0; k < p.Identities; k++ {
			id, err := ca.IssueIdentity(identityURI(t, k))
			if err != nil {
				m.close()
				return nil, err
			}
			ids[t] = append(ids[t], id)
		}
	}
	for svc := 0; svc < routes; svc++ {
		cfg := s.serviceConfig(svc, 0, p.CanaryPct, 0)
		if err := m.gw.ConfigureService(tenantName(s.tenantOf(svc)), cfg, m.pools); err != nil {
			m.close()
			return nil, err
		}
		m.svc[svc].canary.Store(int64(p.CanaryPct))
	}
	m.agents = make([][]*canal.NodeAgent, p.Tenants)
	m.probeAgents = make([]*canal.NodeAgent, p.Tenants)
	for t := 0; t < p.Tenants; t++ {
		for _, id := range ids[t] {
			a := canal.NewNodeAgent(tenantName(t), id, m.gwSrv.URL)
			a.Client, a.Tracer = load, agentTracer
			m.agents[t] = append(m.agents[t], a)
		}
		a := canal.NewNodeAgent(tenantName(t), ids[t][0], m.gwSrv.URL)
		a.Client, a.Tracer = probe, agentTracer
		m.probeAgents[t] = a
	}

	// Set-up ends with the first correctly answered request.
	var buf bytes.Buffer
	var tl tally
	first := m.probeRequest(0)
	if !m.do(m.agents[first.Tenant][first.Identity], &first, nil, &tl, &buf) {
		m.close()
		return nil, fmt.Errorf("first request failed: %s", m.firstWrong())
	}
	return m, nil
}

// admissionConfig is the admission layer's configuration wherever the
// benchmark enables it: package defaults, except that the AIMD limiter never
// drops below minAdmitLimit. The load keeps at most three requests in flight
// (two load connections, or one beside the read-after-write probe), so with
// the floor no request is shed; without it a GC pause or a config write
// inflates a few latencies, the limiter backs off towards 1, and the
// tenant fair share sheds a varying handful of requests per run.
func admissionConfig() admission.Config {
	return admission.Config{Limiter: admission.LimiterConfig{MinLimit: minAdmitLimit}}
}

// minAdmitLimit keeps the fair share of each of three active tenants at two
// or more slots.
const minAdmitLimit = 6

func countNew(n *atomic.Int64) func(net.Conn, http.ConnState) {
	return func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			n.Add(1)
		}
	}
}

func (m *mesh) close() {
	for _, c := range m.clients {
		c.CloseIdleConnections()
	}
	if m.gwSrv != nil {
		m.gwSrv.Close()
	}
	if m.upSrv != nil {
		m.upSrv.Close()
	}
	// The gateway proxies upstream on the process-wide default transport.
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// upstream is the benchmark's backend: it serves the generated body of the
// route and subset the gateway chose and echoes what it was sent.
func (m *mesh) upstream(w http.ResponseWriter, r *http.Request) {
	var t0 time.Time
	if m.spans != nil && m.spans.on.Load() {
		t0 = time.Now()
	}
	svc, ok := m.svcIndex[r.Header.Get(canal.HeaderTenant)+"/"+r.Header.Get(canal.HeaderService)]
	if !ok {
		http.Error(w, "unknown service", http.StatusNotFound)
		return
	}
	subset := r.Header.Get(canal.HeaderSubset)
	tag, rest := m.s.body(svc, subsetIndex(subset))
	if m.plantWrongBody && m.upServed.Add(1)%97 == 0 {
		tag = append([]byte(nil), tag...)
		tag[0] ^= 0xff
	}
	h := w.Header()
	h.Set(hdrSubset, subset)
	h.Set(hdrEchoGen, r.Header.Get(hdrGen))
	h.Set("Content-Length", strconv.Itoa(len(tag)+len(rest)))
	w.Write(tag)
	w.Write(rest)
	if !t0.IsZero() {
		m.spans.record(r.Header.Get(hdrReq), spanUpstream, t0, time.Now())
	}
}

// tracedGateway is the benchmark's wrapper of GatewayServer.ServeHTTP: a
// child span of the request's root, when the run is tracing.
func (m *mesh) tracedGateway(w http.ResponseWriter, r *http.Request) {
	if !m.spans.on.Load() {
		m.gw.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	m.gw.ServeHTTP(w, r)
	m.spans.record(r.Header.Get(hdrReq), spanGateway, t0, time.Now())
}

// tally counts one load goroutine's outcomes against the oracle.
type tally struct {
	attempted, failed int64
	// knownDefect counts signed requests with a query string or a
	// percent-escaped path that got 403: the open auth defect (the agent
	// signs the raw path, the gateway verifies the decoded path without the
	// query). They are answered wrongly, so they are neither correct nor
	// timed, and they count in error_pct; but the oracle expects them, so
	// they are not failed operations.
	knownDefect int64
	// refused counts failed requests by the status they got; transport
	// errors count under 0.
	refused map[int]int64
	// Canary-rule answers: count, canary hits, and the expected hits and
	// their variance under the configured weights (binomial check).
	canaryN    int64
	canaryHits int64
	canaryExp  float64
	canaryVar  float64
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.knownDefect += o.knownDefect
	for status, n := range o.refused {
		t.fail(status, n)
	}
	t.canaryN += o.canaryN
	t.canaryHits += o.canaryHits
	t.canaryExp += o.canaryExp
	t.canaryVar += o.canaryVar
}

func (t *tally) fail(status int, n int64) {
	if t.refused == nil {
		t.refused = map[int]int64{}
	}
	t.refused[status] += n
	t.failed += n
}

// wrong records an oracle violation.
func (m *mesh) wrong(format string, args ...any) {
	m.wrongMu.Lock()
	if len(m.wrongs) < 8 {
		m.wrongs = append(m.wrongs, fmt.Sprintf(format, args...))
	} else {
		m.wrongs[len(m.wrongs)-1] = "... more"
	}
	m.wrongMu.Unlock()
}

func (m *mesh) firstWrong() string {
	m.wrongMu.Lock()
	defer m.wrongMu.Unlock()
	if len(m.wrongs) == 0 {
		return "no answer"
	}
	return m.wrongs[0]
}

// do sends one generated request through agent and checks the answer. It
// returns whether the answer was correct. A refused or failed request only
// counts as failed; a wrong answer is also recorded as an oracle violation.
func (m *mesh) do(agent *canal.NodeAgent, rq *reqSpec, headers map[string]string, tl *tally, buf *bytes.Buffer) bool {
	st := &m.svc[rq.Service]
	genBefore := st.applied.Load()
	pct := st.canary.Load()
	if headers == nil {
		headers = rq.Headers
	}
	tl.attempted++
	resp, err := agent.Do(http.MethodGet, m.s.serviceName(rq.Service), rq.Path, nil, headers)
	if err != nil {
		tl.fail(0, 1)
		return false
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		tl.fail(0, 1)
		return false
	}
	if rq.Expect == http.StatusForbidden {
		if resp.StatusCode == http.StatusForbidden {
			return true
		}
		tl.fail(resp.StatusCode, 1)
		if resp.StatusCode == http.StatusOK {
			m.wrong("deny probe %s -> %s answered 200", identityShort(rq.Tenant, rq.Identity), m.s.gatewayKey(rq.Service))
		}
		return false
	}
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode == http.StatusForbidden && m.s.P.RequireAuth && (rq.Kind == kindQuery || rq.Kind == kindEscaped) {
			tl.knownDefect++
			return false
		}
		tl.fail(resp.StatusCode, 1)
		return false
	}
	subset := resp.Header.Get(hdrSubset)
	if subset != subsetStable && (subset != subsetCanary || rq.Rule != ruleCanary) {
		tl.fail(resp.StatusCode, 1)
		m.wrong("%s %s: rule %s routed to subset %q", m.s.gatewayKey(rq.Service), rq.Path, rq.Rule, subset)
		return false
	}
	if rq.Rule == ruleCanary {
		p := float64(pct) / 100
		tl.canaryN++
		tl.canaryExp += p
		tl.canaryVar += p * (1 - p)
		if subset == subsetCanary {
			tl.canaryHits++
		}
	}
	gen, err := strconv.ParseInt(resp.Header.Get(hdrEchoGen), 10, 64)
	if err != nil || gen < genBefore || gen > st.pending.Load() {
		tl.fail(resp.StatusCode, 1)
		m.wrong("%s: upstream saw generation %q, applied before the request: %d", m.s.gatewayKey(rq.Service), resp.Header.Get(hdrEchoGen), genBefore)
		return false
	}
	tag, rest := m.s.body(rq.Service, subsetIndex(subset))
	b := buf.Bytes()
	if len(b) != len(tag)+len(rest) || !bytes.Equal(b[:len(tag)], tag) || !bytes.Equal(b[len(tag):], rest) {
		tl.fail(resp.StatusCode, 1)
		m.wrong("%s subset %s: 200 with a wrong body (%d bytes, want %d)", m.s.gatewayKey(rq.Service), subset, len(b), len(tag)+len(rest))
		return false
	}
	return true
}

// probeRequest is the read-after-write check sent to a service after a
// config apply: a plain request from the tenant's first identity.
func (m *mesh) probeRequest(svc int) reqSpec {
	r := reqSpec{Tenant: m.s.tenantOf(svc), Service: svc, Path: "/api/items/0", Kind: kindPlain, Rule: ruleCanary, Expect: 200}
	if m.s.P.RichRoutes {
		r.Rule = ruleDefault
		r.Headers = map[string]string{hdrLane: "blue"}
	}
	return r
}

// apply installs one generated update through GatewayServer.ConfigureService
// and returns its wall time. The config is rendered before timing starts.
func (m *mesh) apply(u updateSpec) (time.Duration, error) {
	gen := m.gen.Add(1)
	cfg := m.s.serviceConfig(u.Service, gen, u.CanaryPct, u.FillerEpoch)
	st := &m.svc[u.Service]
	st.pending.Store(gen)
	t0 := time.Now()
	err := m.gw.ConfigureService(tenantName(m.s.tenantOf(u.Service)), cfg, m.pools)
	d := time.Since(t0)
	if err != nil {
		return d, fmt.Errorf("ConfigureService %s: %w", m.s.gatewayKey(u.Service), err)
	}
	st.canary.Store(int64(u.CanaryPct))
	st.applied.Store(gen)
	return d, nil
}

// applyAndProbe applies update u, then checks that the next request to the
// service carries the new SetHeaders generation.
func (m *mesh) applyAndProbe(u updateSpec, tl *tally, buf *bytes.Buffer) (time.Duration, error) {
	d, err := m.apply(u)
	if err != nil {
		return d, err
	}
	rq := m.probeRequest(u.Service)
	m.do(m.probeAgents[rq.Tenant], &rq, nil, tl, buf)
	return d, nil
}
