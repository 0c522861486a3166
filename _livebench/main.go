// Command livebench measures the live Canal mesh request path end to end
// and layer by layer: NodeAgent -> GatewayServer -> upstream, in one process
// over loopback, on generated multi-tenant workloads.
//
//	go run . --workload signed-small --seed 1 --seconds 12 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the traced run and the per-layer replays and prints the per-layer
// metrics. Either way the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}, and every answer is checked
// against the generated inputs. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	s        *spec
	d        time.Duration
	traceOut string
	setup    setupOpts
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("livebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 12, "measured seconds of load")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run and per-layer metrics")
	traceOut := fs.String("trace-out", "", "span export of the traced run (default .bench_build/livebench/traces/<workload>-seed<seed>.json)")
	plant := fs.Bool("plant-wrong-body", false, "self-test: the upstream corrupts one body in 97, which must fail the run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	p, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "livebench: need --workload (%s), --seconds > 0, --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	o := options{
		s:        newSpec(p, *seed),
		d:        time.Duration(*seconds * float64(time.Second)),
		traceOut: *traceOut,
		setup:    setupOpts{plantWrongBody: *plant},
	}
	if o.traceOut == "" {
		o.traceOut = filepath.Join(".bench_build", "livebench", "traces", fmt.Sprintf("%s-seed%d.json", p.Name, *seed))
	}
	var (
		res   result
		notes []string
		err   error
	)
	if *traced == 1 {
		res, notes, err = perLayer(o)
	} else {
		res, notes, err = endToEnd(o)
	}
	if err != nil {
		fmt.Fprintf(stderr, "livebench: %v\n", err)
		return 1
	}
	for _, n := range notes {
		fmt.Fprintln(stdout, n)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-34s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "livebench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	out := make([]string, 0, len(workloads))
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// A run provisions the mesh at least minSetups times and until setupBudget
// has passed; setup_s is the median, and the last mesh carries the load.
const (
	minSetups   = 5
	setupBudget = 2 * time.Second
)

// segments is how many times a run alternates between its phases, so that
// every metric samples the host across the whole run and not in one stretch
// of it.
const segments = 8

// applyProbes is how many back-to-back config applies a workload without
// config churn makes, one session of applyProbes/segments in each segment:
// ten lie beyond p95 in each session.
const applyProbes = segments * 200

// applyBlock bounds a block of back-to-back applies.
const applyBlock = 16

// endToEnd is the untraced run: set-up, then segments rounds of a
// closed-loop phase and an open-loop phase, with the config writer beside
// them on config-churn and a session of config apply probes ahead of each
// round on the other workloads.
func endToEnd(o options) (result, []string, error) {
	s, p := o.s, o.s.P
	var (
		m      *mesh
		setups []float64
	)
	for start := time.Now(); len(setups) < minSetups || time.Since(start) < setupBudget; {
		if m != nil {
			m.close()
			m = nil
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if m, err = setup(s, o.setup); err != nil {
			return result{}, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer m.close()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	heapMB := float64(mem.HeapAlloc) / 1e6

	var (
		total           tally
		applies         []time.Duration
		w               *writer
		closed, paced   phase
		origin          = time.Now()
		closedD, pacedD = time.Duration(0.6*float64(o.d)) / segments, time.Duration(0.4*float64(o.d)) / segments
	)
	warm := m.closedLoop(500*time.Millisecond, p.Conns, false, origin)
	total.add(warm.tally)
	if p.ChurnPerSec > 0 {
		w = m.startWriter(p.ChurnPerSec, 0)
	}
	for i := 0; i < segments; i++ {
		if p.ChurnPerSec == 0 {
			a, tl, err := m.probeApplies(applyProbes/segments, i*applyProbes/segments)
			total.add(tl)
			if err != nil {
				return result{}, nil, err
			}
			applies = append(applies, a...)
		}
		c := m.closedLoop(closedD, p.Conns, false, origin)
		closed.merge(&c)
		pc := m.paced(pacedD, p.PacedRPS, p.Conns, origin)
		paced.merge(&pc)
	}
	total.add(closed.tally)
	total.add(paced.tally)
	if w != nil {
		w.halt()
		if w.err != nil {
			return result{}, nil, w.err
		}
		applies = w.applies
		total.add(w.tl)
	}

	n := float64(closed.correct)
	if n == 0 {
		return result{}, nil, fmt.Errorf("no request answered correctly (%s)", m.firstWrong())
	}
	allocKB := float64(closed.allocBytes) / 1024
	res := result{
		Attempted: total.attempted,
		Failed:    total.failed,
		Metrics: map[string]metric{
			"throughput_rps": {closed.sliceMedian(func(a, b usage) float64 {
				return float64(b.done-a.done) / b.wall.Sub(a.wall).Seconds()
			}), "req/s"},
			"latency_p50_ms": {ms(windowedQuantile(closed.lats, closed.at, 0.50)), "ms"},
			"paced_p50_ms":   {ms(windowedQuantile(paced.lats, paced.at, 0.50)), "ms"},
			"cpu_us_per_req": {closed.sliceMedian(func(a, b usage) float64 {
				return float64((b.cpu - a.cpu).Microseconds()) / float64(b.done-a.done)
			}), "us"},
			"alloc_kb_per_req":    {allocKB / n, "KB"},
			"setup_s":             {median(setups), "s"},
			"heap_mb":             {heapMB, "MB"},
			"config_apply_p50_ms": {ms(windowedQuantile(applies, nil, 0.50)), "ms"},
		},
	}
	res.Correct = m.verdict(total)
	notes := []string{
		fmt.Sprintf("# workload %s seed %d: %d segments, closed loop %d conns %.1fs, paced %.0f req/s %.1fs", p.Name, s.Seed, segments, p.Conns, closed.wall.Seconds(), p.PacedRPS, paced.wall.Seconds()),
		fmt.Sprintf("# samples: closed %d, paced %d, config applies %d, setups %d", len(closed.lats), len(paced.lats), len(applies), len(setups)),
		fmt.Sprintf("# error_pct %.4f %% (%d of %d refused or failed; by status, 0 = transport error: %v; known auth defect 403s: %d)", errorPct(total), total.failed+total.knownDefect, total.attempted, total.refused, total.knownDefect),
		fmt.Sprintf("# closed-loop slice throughputs: %s", sliceRates(&closed)),
		fmt.Sprintf("# paced generator lateness p50 %.4f ms, p99 %.4f ms", ms(quantile(paced.late, 0.5)), ms(quantile(paced.late, 0.99))),
	}
	return res, append(notes, m.wrongNotes()...), nil
}

// probeApplies makes n back-to-back config applies of the generated
// updates from index first on, and returns their ConfigureService wall times
// and the read-after-write probes' outcomes. The applies run in blocks of
// distinct services with the collector paused (SetGCPercent(-1) first waits
// out a running cycle), so no GC cycle overlaps them; then each service of
// the block is probed once.
func (m *mesh) probeApplies(n, first int) ([]time.Duration, tally, error) {
	var (
		tl      tally
		buf     bytes.Buffer
		applies = make([]time.Duration, 0, n)
	)
	for k := first; len(applies) < n; {
		var block []int
		seen := map[int]bool{}
		gcPercent := debug.SetGCPercent(-1)
		for len(block) < applyBlock && len(applies) < n {
			u := m.s.Updates[k%len(m.s.Updates)]
			if seen[u.Service] {
				break
			}
			k++
			seen[u.Service] = true
			d, err := m.apply(u)
			if err != nil {
				debug.SetGCPercent(gcPercent)
				return nil, tl, err
			}
			applies = append(applies, d)
			block = append(block, u.Service)
		}
		debug.SetGCPercent(gcPercent)
		for _, svc := range block {
			rq := m.probeRequest(svc)
			m.do(m.probeAgents[rq.Tenant], &rq, nil, &tl, &buf)
		}
	}
	return applies, tl, nil
}

// verdict runs the end-of-run oracle checks: no wrong answer was seen, and
// the canary share seen at the upstream is within a binomial bound of the
// configured split.
func (m *mesh) verdict(t tally) bool {
	if t.canaryN > 0 {
		sigma := math.Sqrt(t.canaryVar)
		if dev := math.Abs(float64(t.canaryHits) - t.canaryExp); dev > 5*sigma+2 {
			m.wrong("canary share %d of %d, expected %.1f ± %.1f", t.canaryHits, t.canaryN, t.canaryExp, 5*sigma+2)
		}
	}
	m.wrongMu.Lock()
	defer m.wrongMu.Unlock()
	return len(m.wrongs) == 0
}

func (m *mesh) wrongNotes() []string {
	m.wrongMu.Lock()
	defer m.wrongMu.Unlock()
	out := make([]string, 0, len(m.wrongs))
	for _, w := range m.wrongs {
		out = append(out, "# WRONG: "+w)
	}
	return out
}

// sliceRates lists the closed-loop phase's per-slice throughputs.
func sliceRates(p *phase) string {
	var b strings.Builder
	for _, sl := range p.slices {
		a, c := sl[0], sl[1]
		fmt.Fprintf(&b, " %.0f", float64(c.done-a.done)/c.wall.Sub(a.wall).Seconds())
	}
	return b.String()
}

// errorPct is the share of attempted requests that were refused or failed,
// the known auth defect's 403s included.
func errorPct(t tally) float64 {
	return pct(t.failed+t.knownDefect, t.attempted)
}

func pct(n, of int64) float64 {
	if of == 0 {
		return 0
	}
	return 100 * float64(n) / float64(of)
}

func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	if len(ys)%2 == 1 {
		return ys[len(ys)/2]
	}
	return (ys[len(ys)/2-1] + ys[len(ys)/2]) / 2
}

// perLayer is the traced run: untraced and traced closed-loop phases in
// ABBA order (their difference is the tracing overhead, and the order
// cancels a linear drift of the host), a short paced phase, then the
// per-layer replays.
func perLayer(o options) (result, []string, error) {
	s, p := o.s, o.s.P
	so := o.setup
	so.traced = true
	m, err := setup(s, so)
	if err != nil {
		return result{}, nil, fmt.Errorf("setup: %w", err)
	}
	defer m.close()

	var total tally
	origin := time.Now()
	warm := m.closedLoop(500*time.Millisecond, p.Conns, false, origin)
	total.add(warm.tally)
	var w *writer
	if p.ChurnPerSec > 0 {
		w = m.startWriter(p.ChurnPerSec, 0)
	}
	var (
		untraced, traced phase
		counted          usage // untraced phases' counter deltas
	)
	sub := time.Duration(0.25 * float64(o.d) / 4)
	for i := 0; i < 8; i++ {
		if on := i%4 == 1 || i%4 == 2; on {
			ph := m.closedLoop(sub, p.Conns, true, origin)
			traced.merge(&ph)
			continue
		}
		ph := m.closedLoop(sub, p.Conns, false, origin)
		untraced.merge(&ph)
		counted.gwConns += ph.to.gwConns - ph.from.gwConns
		counted.upConns += ph.to.upConns - ph.from.upConns
		counted.gcCycles += ph.to.gcCycles - ph.from.gcCycles
		counted.gcCPU += ph.to.gcCPU - ph.from.gcCPU
		counted.allCPU += ph.to.allCPU - ph.from.allCPU
	}
	paced := m.paced(time.Duration(0.15*float64(o.d)), p.PacedRPS, p.Conns, origin)
	for _, ph := range []*phase{&untraced, &traced, &paced} {
		total.add(ph.tally)
	}
	var applies []time.Duration
	if w != nil {
		w.halt()
		if w.err != nil {
			return result{}, nil, w.err
		}
		applies = w.applies
		total.add(w.tl)
	} else {
		a, tl, err := m.probeApplies(applyProbes/2, 0)
		total.add(tl)
		if err != nil {
			return result{}, nil, err
		}
		applies = a
	}
	if untraced.correct == 0 || traced.correct == 0 {
		return result{}, nil, fmt.Errorf("no request answered correctly (%s)", m.firstWrong())
	}

	tree, spans := m.spans.analyse()
	if err := writeSpans(o.traceOut, p.Name, s.Seed, spans); err != nil {
		return result{}, nil, fmt.Errorf("writing spans: %w", err)
	}
	l, err := m.replayLayers(time.Duration(0.35 * float64(o.d)))
	if err != nil {
		return result{}, nil, fmt.Errorf("replay: %w", err)
	}

	us := func(st layerStat) float64 { return st.nsPerOp / 1e3 }
	stages := us(l.route) + us(l.span) + us(l.parse) + us(l.log)
	if p.RequireAuth {
		stages += us(l.auth)
	}
	if p.Admission {
		stages += us(l.admit)
	}
	n := float64(untraced.correct)
	per1k := func(d int64) float64 { return 1000 * float64(d) / n }
	gcCPU := 0.0
	if counted.allCPU > 0 {
		gcCPU = 100 * counted.gcCPU / counted.allCPU
	}
	p50u, p50t := quantile(untraced.lats, 0.5), quantile(traced.lats, 0.5)
	mt := map[string]metric{
		"canal.gateway_self_us":     {tree.gwSelf, "us"},
		"canal.stage_sum_us":        {stages, "us"},
		"canal.stage_residual_us":   {tree.gwSelf - stages, "us"},
		"canal.agent_self_us":       {tree.rootSelf, "us"},
		"upstream.handle_us":        {tree.upstream, "us"},
		"trace.requests":            {float64(tree.requests), "count"},
		"trace.overhead_us":         {float64((p50t - p50u).Nanoseconds()) / 1e3, "us"},
		"policy.candidates_p50":     {float64(l.candidatesP50), "count"},
		"policy.touched_buckets":    {float64(l.touchedBuckets), "count"},
		"trace.kept_per_1k":         {l.keptPer1k, "count"},
		"net.gateway_conns_per_1k":  {per1k(counted.gwConns), "count"},
		"net.upstream_conns_per_1k": {per1k(counted.upConns), "count"},
		"runtime.gc_per_1k_req":     {per1k(int64(counted.gcCycles)), "count"},
		"runtime.gc_cpu_pct":        {gcCPU, "%"},
		"loadgen.late_p99_ms":       {ms(quantile(paced.late, 0.99)), "ms"},
		"latency_p99_ms":            {ms(windowedQuantile(untraced.lats, untraced.at, 0.99)), "ms"},
		"config_apply_p95_ms":       {ms(windowedQuantile(applies, nil, 0.95)), "ms"},
		"error_pct":                 {errorPct(total), "%"},
		"canal.auth_defect_pct":     {pct(total.knownDefect, total.attempted), "%"},
	}
	for name, st := range map[string]struct {
		s    layerStat
		unit string
	}{
		"canal.agent_local":      {l.agentLocal, "us"},
		"meshcrypto.verify_peer": {l.verifyPeer, "us"},
		"canal.auth":             {l.auth, "us"},
		"l7.route":               {l.route, "ns"},
		"policy.eval":            {l.eval, "ns"},
		"l7.configure":           {l.configure, "us"},
		"policy.apply":           {l.apply, "us"},
		"admission.admit":        {l.admit, "ns"},
		"trace.span":             {l.span, "ns"},
		"trace.parse":            {l.parse, "ns"},
		"telemetry.log":          {l.log, "ns"},
	} {
		v := st.s.nsPerOp
		if st.unit == "us" {
			v /= 1e3
		}
		mt[name+"_"+st.unit] = metric{v, st.unit}
		mt[name+"_allocs"] = metric{st.s.allocs, "allocs/op"}
		mt[name+"_calls"] = metric{float64(st.s.calls), "count"}
		mt[name+"_failures"] = metric{float64(st.s.failures), "count"}
	}
	res := result{Attempted: total.attempted, Failed: total.failed, Metrics: mt}
	res.Correct = m.verdict(total)
	notes := []string{
		fmt.Sprintf("# workload %s seed %d traced run: %d complete span trees, spans written to %s", p.Name, s.Seed, tree.requests, o.traceOut),
		fmt.Sprintf("# closed-loop p50 untraced %.4f ms, traced %.4f ms", ms(p50u), ms(p50t)),
		fmt.Sprintf("# gateway self %.2f us = stages %.2f us + residual %.2f us", tree.gwSelf, stages, tree.gwSelf-stages),
	}
	return res, append(notes, m.wrongNotes()...), nil
}
