package secret

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"simcloud/internal/metric"
	"simcloud/internal/pivot"
	"simcloud/internal/transform"
)

// Key file format (little endian):
//
//	magic    [8]byte "SIMCKEY1"
//	mode     uint8
//	aesLen   uint8   | aes key bytes
//	macLen   uint8   | mac key bytes (0 for GCM)
//	distLen  uint16  | distance-function name bytes
//	nPivots  uint32
//	dim      uint32
//	pivots   nPivots × dim × float32
//	trLen    uint32  | distance-transform blob (0 = none)
//
// The data owner hands this blob to authorized clients over a channel of
// their choosing; it must never reach the similarity-cloud server.

var keyMagic = [8]byte{'S', 'I', 'M', 'C', 'K', 'E', 'Y', '1'}

// Marshal serializes the key (including the pivots) for distribution to
// authorized clients.
func (k *Key) Marshal() ([]byte, error) {
	pivots := k.pivots.Pivots
	if len(pivots) == 0 {
		return nil, errors.New("secret: cannot marshal a key without pivots")
	}
	dim := len(pivots[0])
	distName := k.pivots.Dist.Name()
	size := 8 + 1 + 1 + len(k.aesKey) + 1 + len(k.macKey) + 2 + len(distName) + 4 + 4 + 4*len(pivots)*dim
	out := make([]byte, 0, size)
	out = append(out, keyMagic[:]...)
	out = append(out, byte(k.mode))
	out = append(out, byte(len(k.aesKey)))
	out = append(out, k.aesKey...)
	out = append(out, byte(len(k.macKey)))
	out = append(out, k.macKey...)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(distName)))
	out = append(out, distName...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(pivots)))
	out = binary.LittleEndian.AppendUint32(out, uint32(dim))
	for _, p := range pivots {
		if len(p) != dim {
			return nil, fmt.Errorf("secret: pivot dimension %d, want %d", len(p), dim)
		}
		for _, f := range p {
			out = binary.LittleEndian.AppendUint32(out, math.Float32bits(f))
		}
	}
	if k.distTransform != nil {
		blob := k.distTransform.Marshal()
		out = binary.LittleEndian.AppendUint32(out, uint32(len(blob)))
		out = append(out, blob...)
	} else {
		out = binary.LittleEndian.AppendUint32(out, 0)
	}
	return out, nil
}

// Unmarshal reconstructs a key marshaled by Marshal.
func Unmarshal(buf []byte) (*Key, error) {
	if len(buf) < 8 || [8]byte(buf[:8]) != keyMagic {
		return nil, errors.New("secret: not a key blob")
	}
	buf = buf[8:]
	take := func(n int) ([]byte, error) {
		if len(buf) < n {
			return nil, errors.New("secret: truncated key blob")
		}
		b := buf[:n]
		buf = buf[n:]
		return b, nil
	}
	b, err := take(2)
	if err != nil {
		return nil, err
	}
	mode := Mode(b[0])
	aesLen := int(b[1])
	aesKey, err := take(aesLen)
	if err != nil {
		return nil, err
	}
	b, err = take(1)
	if err != nil {
		return nil, err
	}
	macKey, err := take(int(b[0]))
	if err != nil {
		return nil, err
	}
	b, err = take(2)
	if err != nil {
		return nil, err
	}
	nameB, err := take(int(binary.LittleEndian.Uint16(b)))
	if err != nil {
		return nil, err
	}
	dist, err := metric.ByName(string(nameB))
	if err != nil {
		return nil, err
	}
	b, err = take(8)
	if err != nil {
		return nil, err
	}
	nPivots := binary.LittleEndian.Uint32(b)
	dim := binary.LittleEndian.Uint32(b[4:])
	if nPivots == 0 || nPivots > 1<<20 || dim == 0 || dim > 1<<20 {
		return nil, fmt.Errorf("secret: implausible key header pivots=%d dim=%d", nPivots, dim)
	}
	vecs := make([]metric.Vector, nPivots)
	for i := range vecs {
		raw, err := take(4 * int(dim))
		if err != nil {
			return nil, err
		}
		v := make(metric.Vector, dim)
		for j := range v {
			v[j] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*j:]))
		}
		vecs[i] = v
	}
	var distTransform *transform.Monotone
	b, err = take(4)
	if err != nil {
		return nil, err
	}
	if trLen := int(binary.LittleEndian.Uint32(b)); trLen > 0 {
		blob, err := take(trLen)
		if err != nil {
			return nil, err
		}
		distTransform, err = transform.Unmarshal(blob)
		if err != nil {
			return nil, err
		}
	}
	if len(buf) != 0 {
		return nil, errors.New("secret: trailing bytes in key blob")
	}
	if mode != ModeCTRHMAC && mode != ModeGCM {
		return nil, fmt.Errorf("secret: unknown cipher mode %d", mode)
	}
	if len(aesKey) != aesKeyLen {
		return nil, fmt.Errorf("secret: AES key length %d, want %d", len(aesKey), aesKeyLen)
	}
	if mode == ModeCTRHMAC && len(macKey) != macKeyLen {
		return nil, fmt.Errorf("secret: MAC key length %d, want %d", len(macKey), macKeyLen)
	}
	return newKey(pivot.NewSet(dist, vecs), mode, aesKey, macKey, distTransform)
}
