package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span names of the traced run: one root per request around NodeAgent.Do,
// a child around the wrapped GatewayServer.ServeHTTP, and a grandchild in
// the upstream handler. All three carry the request ID of hdrReq.
const (
	spanRoot     = "agent.Do"
	spanGateway  = "gateway.ServeHTTP"
	spanUpstream = "upstream.handle"
)

var spanParent = map[string]string{spanGateway: spanRoot, spanUpstream: spanGateway}

type span struct {
	Req   int64  `json:"req"`
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// spanLog collects spans in memory while on is set; they are written out
// once the run ends.
type spanLog struct {
	on    atomic.Bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func (l *spanLog) record(req, name string, start, end time.Time) {
	id, err := strconv.ParseInt(req, 10, 64)
	if err != nil {
		return
	}
	s := span{Req: id, Name: name, Start: start.Sub(l.epoch).Nanoseconds(), End: end.Sub(l.epoch).Nanoseconds()}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// spanTree is the analysed span set: per-span self time and the per-request
// means of the complete (three-span) trees.
type spanTree struct {
	requests int     // requests with all three spans
	rootSelf float64 // mean root self time: agent, client and network
	gwSelf   float64 // mean gateway self time
	upstream float64 // mean upstream handler time
}

type exportSpan struct {
	span
	Parent string `json:"parent,omitempty"`
	SelfNs int64  `json:"self_ns"`
}

// analyse computes self times (a span's duration minus what its child
// covers) and returns the spans ready for export.
func (l *spanLog) analyse() (spanTree, []exportSpan) {
	l.mu.Lock()
	spans := append([]span(nil), l.spans...)
	l.mu.Unlock()
	byReq := map[int64]map[string]span{}
	for _, s := range spans {
		if byReq[s.Req] == nil {
			byReq[s.Req] = map[string]span{}
		}
		byReq[s.Req][s.Name] = s
	}
	var t spanTree
	out := make([]exportSpan, 0, len(spans))
	for _, s := range spans {
		self := s.End - s.Start
		for child, parent := range spanParent {
			if parent == s.Name {
				if c, ok := byReq[s.Req][child]; ok {
					self -= c.End - c.Start
				}
			}
		}
		out = append(out, exportSpan{span: s, Parent: spanParent[s.Name], SelfNs: self})
	}
	for _, tree := range byReq {
		root, ok1 := tree[spanRoot]
		gw, ok2 := tree[spanGateway]
		up, ok3 := tree[spanUpstream]
		if !ok1 || !ok2 || !ok3 {
			continue
		}
		t.requests++
		rootD, gwD, upD := root.End-root.Start, gw.End-gw.Start, up.End-up.Start
		t.rootSelf += float64(rootD-gwD) / 1e3
		t.gwSelf += float64(gwD-upD) / 1e3
		t.upstream += float64(upD) / 1e3
	}
	if t.requests > 0 {
		n := float64(t.requests)
		t.rootSelf /= n
		t.gwSelf /= n
		t.upstream /= n
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Req != out[j].Req {
			return out[i].Req < out[j].Req
		}
		return out[i].Start < out[j].Start
	})
	return t, out
}

// writeSpans exports the traced run's spans as JSON.
func writeSpans(path, workload string, seed int64, spans []exportSpan) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"workload": workload, "seed": seed, "spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
