package wire

// The keyed blob store: ciphertext blobs filed under 64-bit keys in a few
// spaces. The server stores and returns them and can read none of them. The
// raw-data store of the paper's Figure 1 keeps one blob per object ID; the
// compared techniques of its Table 9 keep their encrypted index in it — one
// blob per EHI node, a list of ciphertexts per FDH bucket signature.

// Blob spaces. The server treats a space as an opaque byte; these are the
// ones this module's clients use.
const (
	// SpaceRaw holds encrypted raw data by object ID.
	SpaceRaw uint8 = 1
	// SpaceEHI holds the encrypted nodes of an EHI index by node ID.
	SpaceEHI uint8 = 2
	// SpaceFDH holds the encrypted objects of each FDH bucket by signature.
	SpaceFDH uint8 = 3
)

// Blob is one ciphertext filed under a key.
type Blob struct {
	Key  uint64
	Data []byte
}

// PutBlobsReq stores blobs in one space (MsgPutBlobs). Each key it lists
// ends up holding exactly this request's blobs for that key, in request
// order; keys it does not list are untouched.
type PutBlobsReq struct {
	Space uint8
	Items []Blob
}

// Encode serializes the request payload.
func (m PutBlobsReq) Encode() []byte {
	var b Buffer
	b.U8(m.Space)
	b.U32(uint32(len(m.Items)))
	for _, it := range m.Items {
		b.U64(it.Key)
		b.Bytes(it.Data)
	}
	return b.B
}

// DecodePutBlobsReq parses a PutBlobsReq payload.
func DecodePutBlobsReq(p []byte) (PutBlobsReq, error) {
	r := NewReader(p)
	m := PutBlobsReq{Space: r.U8()}
	n := int(r.U32())
	// Each blob occupies at least 12 bytes: its key and a length prefix.
	if r.err != nil || n < 0 || n > len(r.b)/12 {
		return PutBlobsReq{}, ErrCodec
	}
	m.Items = make([]Blob, 0, n)
	for range n {
		key := r.U64()
		data := r.BytesField()
		if r.err != nil {
			break
		}
		m.Items = append(m.Items, Blob{Key: key, Data: data})
	}
	return m, r.Err()
}

// GetBlobsReq fetches the blob lists of keys in one space (MsgGetBlobs).
type GetBlobsReq struct {
	Space uint8
	Keys  []uint64
}

// Encode serializes the request payload.
func (m GetBlobsReq) Encode() []byte {
	var b Buffer
	b.U8(m.Space)
	b.U32(uint32(len(m.Keys)))
	for _, k := range m.Keys {
		b.U64(k)
	}
	return b.B
}

// DecodeGetBlobsReq parses a GetBlobsReq payload.
func DecodeGetBlobsReq(p []byte) (GetBlobsReq, error) {
	r := NewReader(p)
	m := GetBlobsReq{Space: r.U8()}
	n := int(r.U32())
	if r.err != nil || n < 0 || n > len(r.b)/8 {
		return GetBlobsReq{}, ErrCodec
	}
	m.Keys = make([]uint64, n)
	for i := range m.Keys {
		m.Keys[i] = r.U64()
	}
	return m, r.Err()
}

// BlobsResp answers a GetBlobsReq (MsgBlobs): one blob list per requested
// key, in request order, empty for a key the space does not hold.
type BlobsResp struct {
	ServerNanos uint64
	Lists       [][][]byte
}

// Encode serializes the response payload.
func (m BlobsResp) Encode() []byte {
	var b Buffer
	b.U64(m.ServerNanos)
	b.U32(uint32(len(m.Lists)))
	for _, list := range m.Lists {
		b.U32(uint32(len(list)))
		for _, data := range list {
			b.Bytes(data)
		}
	}
	return b.B
}

// DecodeBlobsResp parses a BlobsResp payload answering a request for keys
// keys; a reply with another number of lists is malformed.
func DecodeBlobsResp(p []byte, keys int) (BlobsResp, error) {
	r := NewReader(p)
	m := BlobsResp{ServerNanos: r.U64()}
	// Each list occupies at least its 4-byte blob count.
	if n := int(r.U32()); r.err != nil || n != keys || n > len(r.b)/4 {
		return BlobsResp{}, ErrCodec
	}
	m.Lists = make([][][]byte, keys)
	for i := range m.Lists {
		// Each blob occupies at least its 4-byte length prefix.
		n := r.len32(4)
		for range n {
			m.Lists[i] = append(m.Lists[i], r.BytesField())
		}
		if r.err != nil {
			break
		}
	}
	return m, r.Err()
}
