package meshcrypto

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"fmt"
	"math/big"
	"net/url"
	"sync"
	"testing"
	"time"
)

// cached returns how many verified peers the CA remembers.
func (ca *CA) cached() int {
	ca.mu.RLock()
	defer ca.mu.RUnlock()
	return len(ca.verified)
}

// issueRaw signs a leaf certificate for pub with the CA's key, for the
// malformed identities IssueIdentity cannot produce.
func issueRaw(t testing.TB, ca *CA, pub any, uris []*url.URL) []byte {
	t.Helper()
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(1000),
		Subject:      pkix.Name{CommonName: "raw"},
		URIs:         uris,
		NotBefore:    time.Unix(0, 0),
		NotAfter:     time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC),
		KeyUsage:     x509.KeyUsageDigitalSignature,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, ca.cert, pub, ca.key)
	if err != nil {
		t.Fatal(err)
	}
	return der
}

// TestVerifyPeerCachesSuccess pins the cache's contract: a verified
// certificate is remembered, and a hit returns the same identity and key.
func TestVerifyPeerCachesSuccess(t *testing.T) {
	ca, client, _, _ := testPKI(t)
	id1, pub1, err := ca.VerifyPeer(client.CertDER)
	if err != nil {
		t.Fatal(err)
	}
	if ca.cached() != 1 {
		t.Fatalf("cache holds %d entries after one success, want 1", ca.cached())
	}
	id2, pub2, err := ca.VerifyPeer(client.CertDER)
	if err != nil {
		t.Fatal(err)
	}
	if id2 != id1 || id2 != client.ID || pub2 != pub1 || !pub2.Equal(&client.Key.PublicKey) {
		t.Errorf("cached VerifyPeer = %q %v, want %q and the identity's key", id2, pub2, client.ID)
	}
}

// TestVerifyPeerFailuresNotCached checks, on a warm cache, that every kind
// of bad certificate is rejected on every call and never enters the cache.
func TestVerifyPeerFailuresNotCached(t *testing.T) {
	ca, client, _, _ := testPKI(t)
	if _, _, err := ca.VerifyPeer(client.CertDER); err != nil {
		t.Fatal(err)
	}
	edPub, _, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	uri, _ := url.Parse("spiffe://tenant1/sa/raw")
	bad := map[string][]byte{
		"junk":      []byte("junk"),
		"non-ecdsa": issueRaw(t, ca, edPub, []*url.URL{uri}),
		"no-uri":    issueRaw(t, ca, &client.Key.PublicKey, nil),
	}
	for i := range client.CertDER {
		flipped := append([]byte(nil), client.CertDER...)
		flipped[i] ^= 1
		bad[fmt.Sprintf("bit-flip@%d", i)] = flipped
	}
	for name, der := range bad {
		for call := 0; call < 2; call++ {
			if id, _, err := ca.VerifyPeer(der); err == nil {
				t.Errorf("%s: call %d accepted as %q", name, call, id)
			}
		}
	}
	if ca.cached() != 1 {
		t.Errorf("cache holds %d entries, want only the genuine identity", ca.cached())
	}
}

// TestVerifyPeerCacheBounded issues one identity more than the cache holds:
// the cache never exceeds its bound and every identity still verifies.
func TestVerifyPeerCacheBounded(t *testing.T) {
	ca, err := NewCA("bounded-ca")
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]*Identity, verifiedCap+1)
	for i := range ids {
		if ids[i], err = ca.IssueIdentity(fmt.Sprintf("spiffe://tenant1/sa/w%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for pass := 0; pass < 2; pass++ {
		for _, id := range ids {
			got, _, err := ca.VerifyPeer(id.CertDER)
			if err != nil || got != id.ID {
				t.Fatalf("pass %d: VerifyPeer(%s) = %q, %v", pass, id.ID, got, err)
			}
			if n := ca.cached(); n > verifiedCap {
				t.Fatalf("pass %d: cache holds %d entries, bound %d", pass, n, verifiedCap)
			}
		}
	}
}

// TestVerifyPeerConcurrent runs cache hits, misses and rejections from
// several goroutines at once (run under -race).
func TestVerifyPeerConcurrent(t *testing.T) {
	ca, client, server, _ := testPKI(t)
	other, err := NewCA("other-ca")
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := other.IssueIdentity("spiffe://tenant2/sa/evil")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for _, want := range []*Identity{client, server} {
					if id, _, err := ca.VerifyPeer(want.CertDER); err != nil || id != want.ID {
						t.Errorf("VerifyPeer(%s) = %q, %v", want.ID, id, err)
					}
				}
				if _, _, err := ca.VerifyPeer(foreign.CertDER); err == nil {
					t.Error("foreign certificate accepted")
				}
			}
		}()
	}
	wg.Wait()
	if ca.cached() != 2 {
		t.Errorf("cache holds %d entries, want 2", ca.cached())
	}
}

// BenchmarkVerifyPeer compares a first verification (parse plus chain
// signature check) with a cache hit.
func BenchmarkVerifyPeer(b *testing.B) {
	ca, err := NewCA("bench-ca")
	if err != nil {
		b.Fatal(err)
	}
	id, err := ca.IssueIdentity("spiffe://tenant1/sa/bench")
	if err != nil {
		b.Fatal(err)
	}
	verify := func(b *testing.B) {
		if _, _, err := ca.VerifyPeer(id.CertDER); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ca.mu.Lock()
			clear(ca.verified)
			ca.mu.Unlock()
			verify(b)
		}
	})
	b.Run("cached", func(b *testing.B) {
		verify(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			verify(b)
		}
	})
}
