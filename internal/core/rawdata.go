package core

import (
	"context"
	"fmt"
	"time"

	"simcloud/internal/stats"
	"simcloud/internal/wire"
)

// Raw-data storage (Figure 1 of the paper): the original sensitive data —
// image files, full gene records — is stored encrypted and separately from
// the metric index; similarity search yields object IDs, which the
// authorized client then resolves against the raw-data storage and decrypts
// locally. The same AES key protects both stores, so "the raw data is
// always encrypted" (paper, note at the end of Section 2.3). The server
// keeps the blobs in its keyed blob store, one per object ID in
// wire.SpaceRaw.

// UploadRaw is UploadRawContext without a deadline.
func (c *EncryptedClient) UploadRaw(items map[uint64][]byte) (stats.Costs, error) {
	return c.UploadRawContext(context.Background(), items)
}

// UploadRawContext encrypts and uploads raw-data blobs keyed by object ID.
func (c *EncryptedClient) UploadRawContext(ctx context.Context, items map[uint64][]byte) (stats.Costs, error) {
	var costs stats.Costs
	start := time.Now()
	blobs := make([]wire.Blob, 0, len(items))
	for id, blob := range items {
		encStart := time.Now()
		ct, err := c.Key().Seal(blob)
		costs.EncryptTime += time.Since(encStart)
		if err != nil {
			return costs, fmt.Errorf("core: encrypting raw data %d: %w", id, err)
		}
		blobs = append(blobs, wire.Blob{Key: id, Data: ct})
	}
	respType, resp, err := c.link.RoundTrip(ctx, wire.MsgPutBlobs,
		wire.PutBlobsReq{Space: wire.SpaceRaw, Items: blobs}.Encode(), new(wire.Buffer), &costs)
	if err != nil {
		return costs, err
	}
	if respType != wire.MsgAck {
		return costs, fmt.Errorf("core: unexpected raw upload response %v", respType)
	}
	ack, err := wire.DecodeAckResp(resp)
	if err != nil {
		return costs, err
	}
	costs.CreditServer(ack.ServerNanos)
	costs.Finish(start)
	return costs, nil
}

// FetchRaw is FetchRawContext without a deadline.
func (c *EncryptedClient) FetchRaw(ids []uint64) (map[uint64][]byte, stats.Costs, error) {
	return c.FetchRawContext(context.Background(), ids)
}

// FetchRawContext retrieves and decrypts the raw data of the given object
// IDs — the final step of the outsourced search flow after a similarity
// query has produced its answer set. An ID without raw data is an error.
func (c *EncryptedClient) FetchRawContext(ctx context.Context, ids []uint64) (map[uint64][]byte, stats.Costs, error) {
	var costs stats.Costs
	start := time.Now()
	respType, resp, err := c.link.RoundTrip(ctx, wire.MsgGetBlobs,
		wire.GetBlobsReq{Space: wire.SpaceRaw, Keys: ids}.Encode(), new(wire.Buffer), &costs)
	if err != nil {
		return nil, costs, err
	}
	if respType != wire.MsgBlobs {
		return nil, costs, fmt.Errorf("core: unexpected raw fetch response %v", respType)
	}
	m, err := wire.DecodeBlobsResp(resp, len(ids))
	if err != nil {
		return nil, costs, err
	}
	costs.CreditServer(m.ServerNanos)
	out := make(map[uint64][]byte, len(ids))
	for i, id := range ids {
		if len(m.Lists[i]) != 1 {
			return nil, costs, fmt.Errorf("core: no raw data for object %d", id)
		}
		decStart := time.Now()
		pt, err := c.Key().Open(m.Lists[i][0])
		costs.DecryptTime += time.Since(decStart)
		if err != nil {
			return nil, costs, fmt.Errorf("core: decrypting raw data %d: %w", id, err)
		}
		out[id] = pt
	}
	costs.Finish(start)
	return out, costs, nil
}
