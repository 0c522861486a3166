// Package meshcrypto implements the zero-trust cryptographic substrate of
// the mesh: a certificate authority issuing per-workload identities, a
// simplified 1-RTT mutual-TLS handshake (ECDSA identity signatures, ECDHE
// key agreement, HKDF key derivation, AES-GCM record protection), and the
// KeyOps seam that lets the expensive asymmetric operations run locally, on
// accelerated hardware, or on a remote key server (§4.1.3) — including the
// keyless mode where private keys never leave the customer premises
// (Appendix B).
package meshcrypto

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"crypto/x509"
	"crypto/x509/pkix"
	"errors"
	"fmt"
	"math/big"
	"net/url"
	"sync"
	"time"
)

// verifiedCap bounds each CA's verified-peer cache. It holds far more
// identities than one tenant's CA issues in practice; a full cache is
// emptied and refills from the certificates still in use.
const verifiedCap = 4096

// verifiedPeer is what a successful VerifyPeer returns for one certificate.
type verifiedPeer struct {
	id  string
	pub *ecdsa.PublicKey
}

// CA is the mesh certificate authority. Each tenant gets its own CA so that
// identities are scoped to the tenant's trust domain.
type CA struct {
	name string
	key  *ecdsa.PrivateKey
	cert *x509.Certificate
	der  []byte
	seq  int64

	// verified memoizes successful VerifyPeer results by the SHA-256 of
	// the certificate DER. It belongs to this CA, so a tenant re-registered
	// with a new CA starts with an empty cache.
	mu       sync.RWMutex
	verified map[[sha256.Size]byte]verifiedPeer
}

// NewCA creates a CA with a fresh P-256 key.
func NewCA(name string) (*CA, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("meshcrypto: generating CA key: %w", err)
	}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: name},
		NotBefore:             time.Unix(0, 0),
		NotAfter:              time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC),
		IsCA:                  true,
		KeyUsage:              x509.KeyUsageCertSign | x509.KeyUsageDigitalSignature,
		BasicConstraintsValid: true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		return nil, fmt.Errorf("meshcrypto: self-signing CA cert: %w", err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, err
	}
	return &CA{name: name, key: key, cert: cert, der: der,
		verified: make(map[[sha256.Size]byte]verifiedPeer)}, nil
}

// Name returns the CA's common name.
func (ca *CA) Name() string { return ca.name }

// CertDER returns the CA certificate in DER form for distribution.
func (ca *CA) CertDER() []byte { return ca.der }

// Identity is one workload's certified keypair. The SPIFFE-style ID is
// carried as a URI SAN in the certificate, the way Istio identifies pods.
type Identity struct {
	ID      string
	Key     *ecdsa.PrivateKey
	CertDER []byte
}

// IssueIdentity creates a new identity certified by the CA.
func (ca *CA) IssueIdentity(spiffeID string) (*Identity, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("meshcrypto: generating identity key: %w", err)
	}
	uri, err := url.Parse(spiffeID)
	if err != nil {
		return nil, fmt.Errorf("meshcrypto: bad identity %q: %w", spiffeID, err)
	}
	ca.seq++
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(ca.seq + 1),
		Subject:      pkix.Name{CommonName: spiffeID},
		URIs:         []*url.URL{uri},
		NotBefore:    time.Unix(0, 0),
		NotAfter:     time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC),
		KeyUsage:     x509.KeyUsageDigitalSignature,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageClientAuth, x509.ExtKeyUsageServerAuth},
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, ca.cert, &key.PublicKey, ca.key)
	if err != nil {
		return nil, fmt.Errorf("meshcrypto: signing identity cert: %w", err)
	}
	return &Identity{ID: spiffeID, Key: key, CertDER: der}, nil
}

// VerifyPeer checks that a peer certificate was issued by this CA and
// returns the embedded identity.
//
// A certificate that has verified once is remembered by its DER digest, so
// a peer presenting it again skips the parse and the chain signature check
// and the call does not allocate. Failures are never cached: a rejected
// certificate is checked in full on every call.
func (ca *CA) VerifyPeer(certDER []byte) (string, *ecdsa.PublicKey, error) {
	sum := sha256.Sum256(certDER)
	ca.mu.RLock()
	p, ok := ca.verified[sum]
	ca.mu.RUnlock()
	if ok {
		return p.id, p.pub, nil
	}
	id, pub, err := ca.verifyPeer(certDER)
	if err != nil {
		return "", nil, err
	}
	ca.mu.Lock()
	if len(ca.verified) >= verifiedCap {
		clear(ca.verified)
	}
	ca.verified[sum] = verifiedPeer{id: id, pub: pub}
	ca.mu.Unlock()
	return id, pub, nil
}

// verifyPeer is the full check behind VerifyPeer's cache.
func (ca *CA) verifyPeer(certDER []byte) (string, *ecdsa.PublicKey, error) {
	cert, err := x509.ParseCertificate(certDER)
	if err != nil {
		return "", nil, fmt.Errorf("meshcrypto: parsing peer cert: %w", err)
	}
	if err := cert.CheckSignatureFrom(ca.cert); err != nil {
		return "", nil, fmt.Errorf("meshcrypto: peer cert not issued by %s: %w", ca.name, err)
	}
	pub, ok := cert.PublicKey.(*ecdsa.PublicKey)
	if !ok {
		return "", nil, errors.New("meshcrypto: peer cert key is not ECDSA")
	}
	if len(cert.URIs) == 0 {
		return "", nil, errors.New("meshcrypto: peer cert carries no identity URI")
	}
	return cert.URIs[0].String(), pub, nil
}
