// Package secret implements the encryption layer of the Encrypted M-Index.
//
// The secret key of an authorized client consists of (1) the pivot set and
// (2) the key of the symmetric cipher used to encrypt metric-space objects —
// exactly the two-part secret of Section 4.2 of the paper. The data owner
// generates the key, uses it to build the outsourced index, and shares it
// with authorized clients; the untrusted server only ever stores ciphertexts
// accompanied by pivot permutations (or pivot-distance vectors) and cannot
// evaluate the distance function because the pivots are not known to it.
//
// Two cipher modes are provided:
//
//   - ModeCTRHMAC: AES-128-CTR with an encrypt-then-MAC HMAC-SHA256 tag.
//     This matches the paper's "standard symmetric cipher AES with 128 bit
//     key" while adding integrity, which any practical outsourced store
//     needs (a malicious server could otherwise tamper with candidates).
//   - ModeGCM: AES-128-GCM, the modern AEAD equivalent, used by the cipher
//     ablation benchmark.
package secret

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"math"
	"slices"
	"sync"

	"simcloud/internal/metric"
	"simcloud/internal/pivot"
	"simcloud/internal/simd"
	"simcloud/internal/transform"
)

// Mode selects the symmetric cipher construction.
type Mode uint8

// Cipher modes.
const (
	ModeCTRHMAC Mode = 1 // AES-128-CTR + HMAC-SHA256 (encrypt-then-MAC)
	ModeGCM     Mode = 2 // AES-128-GCM
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeCTRHMAC:
		return "aes-ctr-hmac"
	case ModeGCM:
		return "aes-gcm"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

const (
	aesKeyLen  = 16 // AES-128, as in the paper
	macKeyLen  = 32
	macTagLen  = 16 // truncated HMAC-SHA256 tag
	ctrIVLen   = aes.BlockSize
	gcmNonceLn = 12
)

// Errors returned by decryption.
var (
	ErrAuth   = errors.New("secret: ciphertext authentication failed")
	ErrFormat = errors.New("secret: malformed ciphertext")
)

// Key is the client secret: the pivot set plus symmetric cipher keys, and
// optionally the distribution-hiding distance transformation (see
// transform.go). It must never be sent to the similarity-cloud server.
type Key struct {
	pivots        *pivot.Set
	mode          Mode
	aesKey        []byte
	macKey        []byte
	distTransform *transform.Monotone

	// Cipher state derived from the key material once, in newKey: a
	// candidate set is hundreds of ciphertexts, and expanding the AES key or
	// keying an HMAC per ciphertext cost more than the cryptography itself.
	block cipher.Block // AES over aesKey
	aead  cipher.AEAD  // GCM over block (ModeGCM)
	macs  sync.Pool    // *macState keyed with macKey (ModeCTRHMAC)
}

// macState is one keyed HMAC-SHA256 with the scratch its tag is summed
// into; Reset brings the hash back to its keyed state without re-deriving
// the pads.
type macState struct {
	hash.Hash
	sum [sha256.Size]byte
}

// newKey assembles a key and derives its cipher state; every constructor
// ends here.
func newKey(pivots *pivot.Set, mode Mode, aesKey, macKey []byte, t *transform.Monotone) (*Key, error) {
	k := &Key{pivots: pivots, mode: mode, aesKey: aesKey, macKey: macKey, distTransform: t}
	var err error
	if k.block, err = aes.NewCipher(aesKey); err != nil {
		return nil, err
	}
	switch mode {
	case ModeCTRHMAC:
		k.macs.New = func() any { return &macState{Hash: hmac.New(sha256.New, macKey)} }
	case ModeGCM:
		if k.aead, err = cipher.NewGCM(k.block); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("secret: unknown cipher mode %d", mode)
	}
	return k, nil
}

// tag computes the truncated encrypt-then-MAC tag over data.
func (k *Key) tag(data []byte) [macTagLen]byte {
	m := k.macs.Get().(*macState)
	m.Reset()
	m.Write(data)
	var tag [macTagLen]byte
	copy(tag[:], m.Sum(m.sum[:0]))
	k.macs.Put(m)
	return tag
}

// Generate creates a fresh secret key for the given pivot set, drawing
// cipher keys from crypto/rand.
func Generate(pivots *pivot.Set, mode Mode) (*Key, error) {
	return GenerateFrom(rand.Reader, pivots, mode)
}

// GenerateFrom is Generate with an explicit entropy source (tests use a
// deterministic reader).
func GenerateFrom(random io.Reader, pivots *pivot.Set, mode Mode) (*Key, error) {
	if pivots == nil || pivots.N() == 0 {
		return nil, errors.New("secret: key requires a non-empty pivot set")
	}
	if mode != ModeCTRHMAC && mode != ModeGCM {
		return nil, fmt.Errorf("secret: unknown cipher mode %d", mode)
	}
	aesKey := make([]byte, aesKeyLen)
	if _, err := io.ReadFull(random, aesKey); err != nil {
		return nil, fmt.Errorf("secret: generating AES key: %w", err)
	}
	var macKey []byte
	if mode == ModeCTRHMAC {
		macKey = make([]byte, macKeyLen)
		if _, err := io.ReadFull(random, macKey); err != nil {
			return nil, fmt.Errorf("secret: generating MAC key: %w", err)
		}
	}
	return newKey(pivots, mode, aesKey, macKey, nil)
}

// Pivots exposes the pivot set (client-side use only).
func (k *Key) Pivots() *pivot.Set { return k.pivots }

// Mode returns the cipher mode.
func (k *Key) Mode() Mode { return k.mode }

// EncodeObject serializes a metric object to the plaintext wire form used
// inside ciphertexts: id uint64 | dim uint32 | dim × float32, little endian.
func EncodeObject(o metric.Object) []byte {
	buf := make([]byte, 8+4+4*len(o.Vec))
	binary.LittleEndian.PutUint64(buf[0:], o.ID)
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(o.Vec)))
	for i, f := range o.Vec {
		binary.LittleEndian.PutUint32(buf[12+4*i:], math.Float32bits(f))
	}
	return buf
}

// DecodeObject reverses EncodeObject.
func DecodeObject(buf []byte) (metric.Object, error) {
	id, vec, err := AppendObjectVec(metric.Vector{}, buf)
	if err != nil {
		return metric.Object{}, err
	}
	return metric.Object{ID: id, Vec: vec}, nil
}

// AppendObjectVec decodes an EncodeObject plaintext, appending the object's
// vector to dst — the form a refinement loop uses to decode candidate after
// candidate into one scratch slab. It returns the object's ID and the
// extended slice; the vector is its last (len(result) − len(dst)) elements.
func AppendObjectVec(dst metric.Vector, buf []byte) (uint64, metric.Vector, error) {
	if len(buf) < 12 {
		return 0, dst, ErrFormat
	}
	dim := binary.LittleEndian.Uint32(buf[8:])
	if uint64(len(buf)) != 12+4*uint64(dim) {
		return 0, dst, ErrFormat
	}
	at := len(dst)
	dst = slices.Grow(dst, int(dim))[:at+int(dim)]
	simd.DecodeF32LE(dst[at:], buf[12:])
	return binary.LittleEndian.Uint64(buf), dst, nil
}

// Seal encrypts an arbitrary plaintext under the key, producing a
// self-contained ciphertext (mode byte | nonce/IV | payload | tag).
func (k *Key) Seal(plaintext []byte) ([]byte, error) {
	switch k.mode {
	case ModeCTRHMAC:
		return k.sealCTR(plaintext)
	case ModeGCM:
		return k.sealGCM(plaintext)
	}
	return nil, fmt.Errorf("secret: unknown cipher mode %d", k.mode)
}

// Open decrypts a ciphertext produced by Seal, verifying integrity.
func (k *Key) Open(ct []byte) ([]byte, error) {
	return k.OpenAppend(nil, ct)
}

// OpenAppend is Open appending the plaintext to dst (which must not overlap
// ct) and returning the extended slice: with a reused dst, opening a
// ciphertext allocates nothing beyond what the cipher itself does.
func (k *Key) OpenAppend(dst, ct []byte) ([]byte, error) {
	if len(ct) < 1 {
		return dst, ErrFormat
	}
	if Mode(ct[0]) != k.mode {
		return dst, fmt.Errorf("%w: ciphertext mode %d, key mode %d", ErrFormat, ct[0], k.mode)
	}
	switch k.mode {
	case ModeCTRHMAC:
		return k.openCTR(dst, ct)
	case ModeGCM:
		return k.openGCM(dst, ct[1:])
	}
	return dst, fmt.Errorf("secret: unknown cipher mode %d", k.mode)
}

func (k *Key) sealCTR(plaintext []byte) ([]byte, error) {
	out := make([]byte, 1+ctrIVLen+len(plaintext)+macTagLen)
	out[0] = byte(ModeCTRHMAC)
	iv := out[1 : 1+ctrIVLen]
	if _, err := io.ReadFull(rand.Reader, iv); err != nil {
		return nil, err
	}
	bodyEnd := 1 + ctrIVLen + len(plaintext)
	cipher.NewCTR(k.block, iv).XORKeyStream(out[1+ctrIVLen:bodyEnd], plaintext)
	tag := k.tag(out[:bodyEnd])
	copy(out[bodyEnd:], tag[:])
	return out, nil
}

// openCTR takes the whole ciphertext, mode byte included: the tag covers it.
func (k *Key) openCTR(dst, ct []byte) ([]byte, error) {
	if len(ct) < 1+ctrIVLen+macTagLen {
		return dst, ErrFormat
	}
	bodyEnd := len(ct) - macTagLen
	tag := k.tag(ct[:bodyEnd])
	if !hmac.Equal(tag[:], ct[bodyEnd:]) {
		return dst, ErrAuth
	}
	iv := ct[1 : 1+ctrIVLen]
	body := ct[1+ctrIVLen : bodyEnd]
	at := len(dst)
	dst = slices.Grow(dst, len(body))[:at+len(body)]
	cipher.NewCTR(k.block, iv).XORKeyStream(dst[at:], body)
	return dst, nil
}

func (k *Key) sealGCM(plaintext []byte) ([]byte, error) {
	nonce := make([]byte, gcmNonceLn)
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		return nil, err
	}
	out := make([]byte, 0, 1+gcmNonceLn+len(plaintext)+k.aead.Overhead())
	out = append(out, byte(ModeGCM))
	out = append(out, nonce...)
	return k.aead.Seal(out, nonce, plaintext, nil), nil
}

func (k *Key) openGCM(dst, ct []byte) ([]byte, error) {
	if len(ct) < gcmNonceLn {
		return dst, ErrFormat
	}
	pt, err := k.aead.Open(dst, ct[:gcmNonceLn], ct[gcmNonceLn:], nil)
	if err != nil {
		return dst, ErrAuth
	}
	return pt, nil
}

// EncryptObject serializes and encrypts a metric object — the client side of
// the paper's Algorithm 1, line 8 ("store encrypted data only").
func (k *Key) EncryptObject(o metric.Object) ([]byte, error) {
	return k.Seal(EncodeObject(o))
}

// DecryptObject decrypts and deserializes a candidate object received from
// the server — Algorithm 2, line 13.
func (k *Key) DecryptObject(ct []byte) (metric.Object, error) {
	pt, err := k.Open(ct)
	if err != nil {
		return metric.Object{}, err
	}
	return DecodeObject(pt)
}
