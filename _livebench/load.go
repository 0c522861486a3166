package main

import (
	"bytes"
	"math"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// usage is a snapshot of the process-wide counters a phase is charged with.
type usage struct {
	wall       time.Time
	cpu        time.Duration // user + system
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64 // seconds, runtime estimate
	allCPU     float64 // seconds, runtime estimate
	gwConns    int64
	upConns    int64
	done       int64 // requests the load workers had answered correctly
}

var usageSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func (m *mesh) usage() usage {
	ms := make([]metrics.Sample, len(usageSamples))
	for i, n := range usageSamples {
		ms[i].Name = n
	}
	metrics.Read(ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return usage{
		wall:       time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: ms[0].Value.Uint64(),
		gcCycles:   ms[1].Value.Uint64(),
		gcCPU:      ms[2].Value.Float64(),
		allCPU:     ms[3].Value.Float64(),
		gwConns:    m.gwConns.Load(),
		upConns:    m.upConns.Load(),
		done:       m.done.Load(),
	}
}

// phase is one load phase's measurements.
type phase struct {
	tally
	correct  int64           // correctly answered requests
	lats     []time.Duration // latency of correctly answered requests
	at       []time.Duration // completion time of each lats sample, from the run's origin
	late     []time.Duration // paced only: how late each request was sent
	from, to usage
	// slices are closed-loop intervals about sliceDur long, each as its
	// first and last snapshot; per-slice rates are reported as their median.
	slices [][2]usage
	// wall and allocBytes are the elapsed time and heap bytes allocated,
	// summed over the phases merged into this one.
	wall       time.Duration
	allocBytes uint64
}

// sliceDur is the length of the closed-loop slices.
const sliceDur = time.Second

// sliceMedian returns the median over the phase's slices of f, skipping
// slices in which nothing completed.
func (p *phase) sliceMedian(f func(a, b usage) float64) float64 {
	var xs []float64
	for _, sl := range p.slices {
		if a, b := sl[0], sl[1]; b.done > a.done {
			xs = append(xs, f(a, b))
		}
	}
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// merge adds the measurements of o, a later phase of the same run.
func (p *phase) merge(o *phase) {
	p.tally.add(o.tally)
	p.correct += o.correct
	p.lats = append(p.lats, o.lats...)
	p.at = append(p.at, o.at...)
	p.late = append(p.late, o.late...)
	p.slices = append(p.slices, o.slices...)
	p.wall += o.wall
	p.allocBytes += o.allocBytes
}

// worker is one load goroutine's state.
type worker struct {
	m     *mesh
	start time.Time // the run's origin, from which completion times count
	buf   bytes.Buffer
	ph    phase
	trace bool
	hdrs  map[string]string
}

// send issues the next generated request and records its outcome. Its
// latency runs from due, or from the start of NodeAgent.Do when due is zero
// (closed loop).
func (w *worker) send(due time.Time) {
	m := w.m
	i := m.next.Add(1) - 1
	rq := &m.s.Requests[i%int64(len(m.s.Requests))]
	agent := m.agents[rq.Tenant][rq.Identity]
	var headers map[string]string
	var id string
	if w.trace {
		clear(w.hdrs)
		for k, v := range rq.Headers {
			w.hdrs[k] = v
		}
		id = strconv.FormatInt(m.reqSeq.Add(1), 10)
		w.hdrs[hdrReq] = id
		headers = w.hdrs
	}
	start := time.Now()
	ok := m.do(agent, rq, headers, &w.ph.tally, &w.buf)
	end := time.Now()
	if w.trace {
		m.spans.record(id, spanRoot, start, end)
	}
	if due.IsZero() {
		due = start
	}
	if ok {
		m.done.Add(1)
		w.ph.correct++
		w.ph.lats = append(w.ph.lats, end.Sub(due))
		w.ph.at = append(w.ph.at, end.Sub(w.start))
	}
}

func (m *mesh) newWorkers(n int, traced bool, origin time.Time) []*worker {
	ws := make([]*worker, n)
	for i := range ws {
		ws[i] = &worker{m: m, start: origin, trace: traced, hdrs: map[string]string{}}
		ws[i].ph.lats = make([]time.Duration, 0, 1<<14)
		ws[i].ph.at = make([]time.Duration, 0, 1<<14)
	}
	return ws
}

func (m *mesh) collect(ws []*worker, from usage) phase {
	var ph phase
	ph.from, ph.to = from, m.usage()
	ph.wall = ph.to.wall.Sub(from.wall)
	ph.allocBytes = ph.to.allocBytes - from.allocBytes
	for _, w := range ws {
		ph.merge(&w.ph)
	}
	return ph
}

// closedLoop runs conns goroutines, each sending its next request as soon
// as the previous answer has been read, for d. Completion times count from
// origin.
func (m *mesh) closedLoop(d time.Duration, conns int, traced bool, origin time.Time) phase {
	if traced {
		m.spans.on.Store(true)
		defer m.spans.on.Store(false)
	}
	from := m.usage()
	ws := m.newWorkers(conns, traced, origin)
	deadline := from.wall.Add(d)
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				w.send(time.Time{})
			}
		}(w)
	}
	stop := make(chan struct{})
	sampled := make(chan []usage)
	go func() {
		tick := time.NewTicker(sliceDur)
		defer tick.Stop()
		var us []usage
		for {
			select {
			case <-stop:
				sampled <- us
				return
			case <-tick.C:
				us = append(us, m.usage())
			}
		}
	}()
	wg.Wait()
	close(stop)
	mid := <-sampled
	ph := m.collect(ws, from)
	snaps := append([]usage{from}, mid...)
	// A last slice shorter than half a slice is too short to rate; it joins
	// the slice before it.
	if last := snaps[len(snaps)-1]; ph.to.wall.Sub(last.wall) >= sliceDur/2 || len(snaps) == 1 {
		snaps = append(snaps, ph.to)
	} else {
		snaps[len(snaps)-1] = ph.to
	}
	for i := 1; i < len(snaps); i++ {
		ph.slices = append(ph.slices, [2]usage{snaps[i-1], snaps[i]})
	}
	return ph
}

// paced offers rate requests per second on a fixed schedule for d, from
// conns goroutines. Each request is timed from when it was due, so a stall
// also charges the requests queued behind it. Completion times count from
// origin.
func (m *mesh) paced(d time.Duration, rate float64, conns int, origin time.Time) phase {
	interval := time.Duration(float64(time.Second) / rate)
	total := int64(d / interval)
	var (
		mu   sync.Mutex
		slot int64
		wg   sync.WaitGroup
	)
	from := m.usage()
	start := from.wall
	ws := m.newWorkers(conns, false, origin)
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for {
				mu.Lock()
				k := slot
				slot++
				mu.Unlock()
				if k >= total {
					return
				}
				due := start.Add(time.Duration(k) * interval)
				sleepUntil(due)
				w.ph.late = append(w.ph.late, time.Since(due))
				w.send(due)
			}
		}(w)
	}
	wg.Wait()
	return m.collect(ws, from)
}

// sleepUntil blocks the calling thread in nanosleep until t. The runtime's
// timers wake sleeping goroutines on a millisecond-granular poller, which
// would add up to a millisecond of generator lateness to every paced
// request; nanosleep keeps the pacing to the kernel's timer slack.
func sleepUntil(t time.Time) {
	for {
		wait := time.Until(t)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(wait.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}

// writer applies the generated config updates at a fixed rate beside the
// load until stopped, checking read-after-write after every apply.
type writer struct {
	m       *mesh
	stop    chan struct{}
	done    chan struct{}
	applies []time.Duration
	tl      tally
	err     error
}

func (m *mesh) startWriter(rate float64, first int) *writer {
	w := &writer{m: m, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		var buf bytes.Buffer
		interval := time.Duration(float64(time.Second) / rate)
		start := time.Now()
		for k := 0; ; k++ {
			select {
			case <-w.stop:
				return
			case <-time.After(time.Until(start.Add(time.Duration(k) * interval))):
			}
			u := m.s.Updates[(first+k)%len(m.s.Updates)]
			d, err := m.applyAndProbe(u, &w.tl, &buf)
			if err != nil {
				w.err = err
				return
			}
			w.applies = append(w.applies, d)
		}
	}()
	return w
}

// halt stops the writer and waits for it to exit.
func (w *writer) halt() {
	close(w.stop)
	<-w.done
}

// quantile returns the q-quantile (nearest rank) of ds.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	ds = append([]time.Duration(nil), ds...)
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(q*float64(len(ds))+0.5) - 1
	return ds[min(max(i, 0), len(ds)-1)]
}

// windowedQuantile splits the samples, in the order of their completion
// times at (nil: in the order given), into up to 16 equal windows that each
// hold at least ten samples beyond their q-quantile, takes the q-quantile of
// each window, and returns the median of those. A stall that hits one window
// moves one window value, not the reported one. With too few samples for
// three windows it returns the plain quantile.
func windowedQuantile(lats, at []time.Duration, q float64) time.Duration {
	minWindow := int(math.Ceil(10 / (1 - q)))
	k := min(16, len(lats)/minWindow)
	if k < 3 {
		return quantile(lats, q)
	}
	idx := make([]int, len(lats))
	for i := range idx {
		idx[i] = i
	}
	if at != nil {
		sort.SliceStable(idx, func(a, b int) bool { return at[idx[a]] < at[idx[b]] })
	}
	vals := make([]time.Duration, 0, k)
	for w := 0; w < k; w++ {
		lo, hi := w*len(idx)/k, (w+1)*len(idx)/k
		win := make([]time.Duration, 0, hi-lo)
		for _, i := range idx[lo:hi] {
			win = append(win, lats[i])
		}
		vals = append(vals, quantile(win, q))
	}
	return quantile(vals, 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
