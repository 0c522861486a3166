package meshcrypto

import (
	"bytes"
	"testing"
	"testing/quick"
)

// testPKI builds a CA with client and server identities and local key ops.
func testPKI(t *testing.T) (*CA, *Identity, *Identity, *LocalKeyOps) {
	t.Helper()
	ca, err := NewCA("tenant1-ca")
	if err != nil {
		t.Fatal(err)
	}
	client, err := ca.IssueIdentity("spiffe://tenant1/ns/default/sa/web")
	if err != nil {
		t.Fatal(err)
	}
	server, err := ca.IssueIdentity("spiffe://tenant1/ns/default/sa/api")
	if err != nil {
		t.Fatal(err)
	}
	return ca, client, server, NewLocalKeyOps(client, server)
}

// runHandshake executes a complete handshake and returns both sessions.
func runHandshake(t *testing.T, ca *CA, client, server *Identity, clientOps, serverOps KeyOps) (*Session, *Session) {
	t.Helper()
	ch, off, err := Offer(client.ID, client.CertDER, ca, clientOps)
	if err != nil {
		t.Fatal(err)
	}
	sh, acc, err := Accept(server.ID, server.CertDER, ca, serverOps, ch)
	if err != nil {
		t.Fatal(err)
	}
	cs, fin, peerID, err := off.Finish(sh)
	if err != nil {
		t.Fatal(err)
	}
	if peerID != server.ID {
		t.Fatalf("client saw peer %q, want %q", peerID, server.ID)
	}
	if acc.PeerID != client.ID {
		t.Fatalf("server saw peer %q, want %q", acc.PeerID, client.ID)
	}
	if err := acc.VerifyFinished(fin); err != nil {
		t.Fatal(err)
	}
	return cs, acc.Session
}

func TestCAIssueAndVerify(t *testing.T) {
	ca, client, _, _ := testPKI(t)
	id, pub, err := ca.VerifyPeer(client.CertDER)
	if err != nil {
		t.Fatal(err)
	}
	if id != client.ID || pub == nil {
		t.Errorf("VerifyPeer = %q", id)
	}
}

func TestCARejectsForeignCert(t *testing.T) {
	ca1, client, _, _ := testPKI(t)
	ca2, err := NewCA("tenant2-ca")
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := ca2.IssueIdentity("spiffe://tenant2/sa/evil")
	if err != nil {
		t.Fatal(err)
	}
	// Both CAs have verified a peer of their own: a warm cache must not
	// carry an identity across trust domains.
	if _, _, err := ca1.VerifyPeer(client.CertDER); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ca2.VerifyPeer(foreign.CertDER); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ca1.VerifyPeer(foreign.CertDER); err == nil {
		t.Error("CA must reject certificates from another trust domain")
	}
	if _, _, err := ca2.VerifyPeer(client.CertDER); err == nil {
		t.Error("CA must reject certificates from another trust domain")
	}
}

func TestCARejectsGarbage(t *testing.T) {
	ca, _, _, _ := testPKI(t)
	if _, _, err := ca.VerifyPeer([]byte("junk")); err == nil {
		t.Error("expected parse error")
	}
}

func TestHandshakeEstablishesMatchingSessions(t *testing.T) {
	ca, client, server, ops := testPKI(t)
	cs, ss := runHandshake(t, ca, client, server, ops, ops)

	msg := []byte("GET /orders HTTP/1.1")
	ct := cs.Seal(msg)
	if bytes.Equal(ct, msg) {
		t.Error("ciphertext equals plaintext")
	}
	pt, err := ss.Open(ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, msg) {
		t.Errorf("round trip = %q", pt)
	}
	// And the reverse direction.
	reply := []byte("HTTP/1.1 200 OK")
	pt2, err := cs.Open(ss.Seal(reply))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt2, reply) {
		t.Errorf("reverse round trip = %q", pt2)
	}
}

func TestHandshakeMultipleRecordsInOrder(t *testing.T) {
	ca, client, server, ops := testPKI(t)
	cs, ss := runHandshake(t, ca, client, server, ops, ops)
	for i := 0; i < 50; i++ {
		msg := []byte{byte(i), byte(i + 1)}
		pt, err := ss.Open(cs.Seal(msg))
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(pt, msg) {
			t.Fatalf("record %d corrupted", i)
		}
	}
}

func TestSessionRejectsTampering(t *testing.T) {
	ca, client, server, ops := testPKI(t)
	cs, ss := runHandshake(t, ca, client, server, ops, ops)
	ct := cs.Seal([]byte("secret"))
	ct[0] ^= 0xFF
	if _, err := ss.Open(ct); err == nil {
		t.Error("tampered record must fail authentication")
	}
}

func TestSessionRejectsReplay(t *testing.T) {
	ca, client, server, ops := testPKI(t)
	cs, ss := runHandshake(t, ca, client, server, ops, ops)
	ct := cs.Seal([]byte("pay $100"))
	if _, err := ss.Open(ct); err != nil {
		t.Fatal(err)
	}
	if _, err := ss.Open(ct); err == nil {
		t.Error("replayed record must fail (sequence advanced)")
	}
}

func TestHandshakeRejectsImpostorServer(t *testing.T) {
	ca, client, server, _ := testPKI(t)
	// The impostor holds the server's certificate but not its key.
	impostor, err := ca.IssueIdentity("spiffe://tenant1/sa/impostor")
	if err != nil {
		t.Fatal(err)
	}
	impostorOps := NewLocalKeyOps(impostor)
	ch, off, err := Offer(client.ID, client.CertDER, ca, NewLocalKeyOps(client))
	if err != nil {
		t.Fatal(err)
	}
	// Impostor signs with its own key under the server's identity string:
	// Accept fails because the impostor has no stored key for server.ID.
	if _, _, err := Accept(server.ID, server.CertDER, ca, impostorOps, ch); err == nil {
		t.Fatal("key ops must refuse unknown identity")
	}
	// Impostor presents its own cert instead: handshake completes but the
	// client sees the impostor's identity, not the server's.
	sh, _, err := Accept(impostor.ID, impostor.CertDER, ca, impostorOps, ch)
	if err != nil {
		t.Fatal(err)
	}
	_, _, peerID, err := off.Finish(sh)
	if err != nil {
		t.Fatal(err)
	}
	if peerID == server.ID {
		t.Error("client must not mistake the impostor for the server")
	}
}

func TestHandshakeRejectsForgedServerSignature(t *testing.T) {
	ca, client, server, ops := testPKI(t)
	ch, off, err := Offer(client.ID, client.CertDER, ca, ops)
	if err != nil {
		t.Fatal(err)
	}
	sh, _, err := Accept(server.ID, server.CertDER, ca, ops, ch)
	if err != nil {
		t.Fatal(err)
	}
	sh.Signature[4] ^= 0x01
	if _, _, _, err := off.Finish(sh); err == nil {
		t.Error("forged server signature must be rejected")
	}
}

func TestVerifyFinishedRejectsForgery(t *testing.T) {
	ca, client, server, ops := testPKI(t)
	ch, off, err := Offer(client.ID, client.CertDER, ca, ops)
	if err != nil {
		t.Fatal(err)
	}
	sh, acc, err := Accept(server.ID, server.CertDER, ca, ops, ch)
	if err != nil {
		t.Fatal(err)
	}
	_, fin, _, err := off.Finish(sh)
	if err != nil {
		t.Fatal(err)
	}
	fin.Signature[2] ^= 0xFF
	if err := acc.VerifyFinished(fin); err == nil {
		t.Error("forged Finished must be rejected")
	}
}

func TestCompleteWithKeyRoleValidation(t *testing.T) {
	_, client, _, _ := testPKI(t)
	// Server role with an ephPriv must be rejected.
	if _, err := CompleteWithKey(client.Key, RoleServer, []byte("x"), []byte("notnil"), nil, nil, nil); err == nil {
		t.Error("server role with ephPriv should error")
	}
	if _, err := CompleteWithKey(client.Key, Role(9), []byte("x"), nil, nil, nil, nil); err == nil {
		t.Error("unknown role should error")
	}
	if _, err := CompleteWithKey(client.Key, RoleServer, []byte("x"), nil, []byte("bad-pub"), nil, nil); err == nil {
		t.Error("bad peer public share should error")
	}
}

func TestDeriveKeysProperties(t *testing.T) {
	shared := []byte("shared-secret-material")
	nc, ns := []byte("nonce-c"), []byte("nonce-s")
	c2s, s2c := DeriveKeys(shared, nc, ns)
	if len(c2s) != 32 || len(s2c) != 32 {
		t.Fatalf("key lengths %d, %d", len(c2s), len(s2c))
	}
	if bytes.Equal(c2s, s2c) {
		t.Error("directional keys must differ")
	}
	// Deterministic.
	c2s2, _ := DeriveKeys(shared, nc, ns)
	if !bytes.Equal(c2s, c2s2) {
		t.Error("derivation must be deterministic")
	}
	// Nonce-sensitive.
	c2s3, _ := DeriveKeys(shared, []byte("other"), ns)
	if bytes.Equal(c2s, c2s3) {
		t.Error("different nonces must yield different keys")
	}
}

func TestDeriveKeysQuick(t *testing.T) {
	f := func(secret, nc, ns []byte) bool {
		a, b := DeriveKeys(secret, nc, ns)
		return len(a) == 32 && len(b) == 32 && !bytes.Equal(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHKDFExpandLengths(t *testing.T) {
	prk := hkdfExtract(nil, []byte("ikm"))
	for _, n := range []int{1, 31, 32, 33, 64, 100} {
		out := hkdfExpand(prk, []byte("info"), n)
		if len(out) != n {
			t.Errorf("expand(%d) returned %d bytes", n, len(out))
		}
	}
}

func TestLocalKeyOpsUnknownIdentity(t *testing.T) {
	ops := NewLocalKeyOps()
	if _, err := ops.Complete("ghost", RoleServer, nil, nil, nil, nil, nil); err == nil {
		t.Error("unknown identity should error")
	}
}

func TestLocalKeyOpsAdd(t *testing.T) {
	ca, client, _, _ := testPKI(t)
	_ = ca
	ops := NewLocalKeyOps()
	ops.Add(client)
	ch, _, err := Offer(client.ID, client.CertDER, ca, ops)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Accept(client.ID, client.CertDER, ca, ops, ch); err != nil {
		t.Errorf("added identity should serve: %v", err)
	}
}

func TestNewSessionBadKeys(t *testing.T) {
	if _, err := NewSession([]byte("short"), make([]byte, 32), true); err == nil {
		t.Error("short key should fail")
	}
}

func TestSessionRekeyInLockstep(t *testing.T) {
	ca, client, server, ops := testPKI(t)
	cs, ss := runHandshake(t, ca, client, server, ops, ops)
	// Traffic before rekey.
	if _, err := ss.Open(cs.Seal([]byte("gen-0"))); err != nil {
		t.Fatal(err)
	}
	if err := cs.Rekey(); err != nil {
		t.Fatal(err)
	}
	if err := ss.Rekey(); err != nil {
		t.Fatal(err)
	}
	// Traffic after a synchronized rekey flows both ways.
	pt, err := ss.Open(cs.Seal([]byte("gen-1")))
	if err != nil {
		t.Fatal(err)
	}
	if string(pt) != "gen-1" {
		t.Errorf("round trip = %q", pt)
	}
	if _, err := cs.Open(ss.Seal([]byte("reply"))); err != nil {
		t.Fatal(err)
	}
}

func TestSessionRekeyDesyncFails(t *testing.T) {
	ca, client, server, ops := testPKI(t)
	cs, ss := runHandshake(t, ca, client, server, ops, ops)
	if err := cs.Rekey(); err != nil {
		t.Fatal(err)
	}
	// The server did not rekey: records must not authenticate.
	if _, err := ss.Open(cs.Seal([]byte("secret"))); err == nil {
		t.Error("records sealed under the new generation must not open under the old keys")
	}
}

func TestSessionRekeyChangesKeys(t *testing.T) {
	ca, client, server, ops := testPKI(t)
	cs, _ := runHandshake(t, ca, client, server, ops, ops)
	before := append([]byte(nil), cs.c2sKey...)
	if err := cs.Rekey(); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(before, cs.c2sKey) {
		t.Error("rekey must derive fresh key material")
	}
}
