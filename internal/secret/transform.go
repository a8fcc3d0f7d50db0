package secret

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math/rand/v2"

	"simcloud/internal/transform"
)

// The distribution-hiding distance transformation (the paper's future-work
// extension, implemented here) is part of the secret key: every authorized
// client must apply the same keyed monotone map to pivot distances before
// they reach the server, so the transform is fitted once by the data owner
// and travels inside the marshaled key.

// Transform returns the key's distance transformation, or nil when the key
// stores raw pivot distances.
func (k *Key) Transform() *transform.Monotone { return k.distTransform }

// FitTransform fits an equalizing distance transformation from a sample of
// object–pivot distances and attaches it to the key. The jitter randomness
// is derived deterministically from the key's cipher material, so re-fitting
// with the same key and sample reproduces the same transform.
func (k *Key) FitTransform(sample []float64, knots int) error {
	if len(k.aesKey) == 0 {
		return errors.New("secret: key has no cipher material")
	}
	h := sha256.Sum256(append(append([]byte("simcloud-transform"), k.aesKey...), k.macKey...))
	rng := rand.New(rand.NewPCG(
		binary.LittleEndian.Uint64(h[0:8]),
		binary.LittleEndian.Uint64(h[8:16]),
	))
	t, err := transform.FitEqualizing(rng, sample, knots)
	if err != nil {
		return err
	}
	k.distTransform = t
	return nil
}

// TransformDists applies the key's transformation to a distance vector,
// returning the input unchanged when no transform is attached.
func (k *Key) TransformDists(dists []float64) []float64 {
	if k.distTransform == nil {
		return dists
	}
	return k.distTransform.ApplyAll(dists)
}

// TransformRadius maps a query radius into transformed space (identity when
// no transform is attached).
func (k *Key) TransformRadius(r float64) float64 {
	if k.distTransform == nil {
		return r
	}
	return k.distTransform.RadiusBound(r)
}
