package canal

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestGatewayReusesUpstreamConnections drives 8 concurrent clients through
// one gateway: the gateway's own Transport keeps enough idle upstream
// connections that new ones stay near the concurrency. With
// http.DefaultTransport (2 idle per host) the same load opens hundreds.
func TestGatewayReusesUpstreamConnections(t *testing.T) {
	const clients, total, slack = 8, 2000, 4
	var dials atomic.Int64
	up := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	up.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	up.Start()
	defer up.Close()
	_, agent, _ := testMesh(t, ServiceConfig{Service: "web", DefaultSubset: "v1"},
		map[string][]string{"v1": {up.URL}}, false)
	client := &http.Transport{MaxIdleConnsPerHost: clients}
	defer client.CloseIdleConnections()
	agent.Client = &http.Client{Transport: client}

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < total/clients; i++ {
				resp, err := agent.Get("web", "/")
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || string(body) != "ok" {
					t.Errorf("status %d body %q err %v", resp.StatusCode, body, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := dials.Load(); n > clients+slack {
		t.Errorf("%d upstream connections for %d requests at %d-way concurrency, want at most %d",
			n, total, clients, clients+slack)
	}
}

// patternBody is the upstream body served for /body/<n>: larger than the
// proxy's 32 KB copy buffer and distinct for every n.
func patternBody(n int) []byte {
	b := make([]byte, proxyBufferSize+7919*n+1)
	for i := range b {
		b[i] = byte(i*31 + n*7 + i>>8)
	}
	return b
}

// TestGatewayProxiesBodiesThroughPooledBuffers checks that responses larger
// than one pooled copy buffer, and distinct responses proxied concurrently
// through the shared pool, arrive byte for byte.
func TestGatewayProxiesBodiesThroughPooledBuffers(t *testing.T) {
	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n, err := strconv.Atoi(strings.TrimPrefix(r.URL.Path, "/body/"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Write(patternBody(n))
	}))
	defer up.Close()
	_, agent, _ := testMesh(t, ServiceConfig{Service: "web", DefaultSubset: "v1"},
		map[string][]string{"v1": {up.URL}}, false)

	fetch := func(n int) error {
		resp, err := agent.Get("web", fmt.Sprintf("/body/%d", n))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if want := patternBody(n); !bytes.Equal(got, want) {
			return fmt.Errorf("body %d differs from what the upstream sent (%d bytes received, %d sent)", n, len(got), len(want))
		}
		return nil
	}
	if err := fetch(0); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if err := fetch(1 + c*10 + i); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// BenchmarkGatewayServeHTTP measures one proxied request through
// GatewayServer.ServeHTTP to a loopback upstream: a signed request with a
// 2-byte response (authentication dominates) and an unsigned one with a
// 16 KB response (proxying and copying dominate). Its B/op shows the
// verified-peer cache and the pooled copy buffers.
func BenchmarkGatewayServeHTTP(b *testing.B) {
	for _, bc := range []struct {
		name string
		auth bool
		body []byte
	}{
		{"signed-2B", true, []byte("ok")},
		{"unsigned-16KB", false, bytes.Repeat([]byte("x"), 16<<10)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Write(bc.body)
			}))
			defer up.Close()
			gw := NewGatewayServer(1)
			gw.RequireAuth = bc.auth
			ca, err := NewCA("bench-ca")
			if err != nil {
				b.Fatal(err)
			}
			gw.RegisterTenant("tenant1", ca)
			if err := gw.ConfigureService("tenant1", ServiceConfig{Service: "web", DefaultSubset: "v1"},
				map[string][]string{"v1": {up.URL}}); err != nil {
				b.Fatal(err)
			}
			id, err := ca.IssueIdentity("spiffe://tenant1/ns/default/sa/client")
			if err != nil {
				b.Fatal(err)
			}
			// The signed headers stay valid for the skew window, far longer
			// than a benchmark run.
			req := httptest.NewRequest(http.MethodGet, "/bench", nil)
			req.Header = signedHeaders(b, id, "/bench")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				gw.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK || rec.Body.Len() != len(bc.body) {
					b.Fatalf("status %d, %d body bytes", rec.Code, rec.Body.Len())
				}
			}
		})
	}
}
