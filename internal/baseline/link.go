package baseline

import (
	"context"
	"fmt"
	"net"
	"time"

	"simcloud/internal/stats"
	"simcloud/internal/wire"
)

// dial connects a baseline client to the server at addr. Every baseline
// protocol runs over a wire.Link like the encrypted client's, but its dial
// skips the hello: the compared techniques run against whichever deployment
// serves their blobs. The first connection is dialed here, so an
// unreachable server fails the dial.
func dial(addr string) (*wire.Link, error) {
	l := wire.NewLink(func(ctx context.Context) (*wire.CountingConn, error) {
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		return &wire.CountingConn{Conn: conn}, nil
	})
	if err := l.Warm(context.Background()); err != nil {
		return nil, err
	}
	return l, nil
}

// upload stores blobs in one space of the server's blob store, in one round
// trip.
func upload(l *wire.Link, space uint8, blobs []wire.Blob) (stats.Costs, error) {
	var costs stats.Costs
	start := time.Now()
	respType, resp, err := l.RoundTrip(context.Background(), wire.MsgPutBlobs,
		wire.PutBlobsReq{Space: space, Items: blobs}.Encode(), new(wire.Buffer), &costs)
	if err != nil {
		return costs, err
	}
	if respType != wire.MsgAck {
		return costs, fmt.Errorf("baseline: unexpected upload response %v", respType)
	}
	ack, err := wire.DecodeAckResp(resp)
	if err != nil {
		return costs, err
	}
	costs.CreditServer(ack.ServerNanos)
	costs.Finish(start)
	return costs, nil
}

// fetch reads the blob lists of keys from one space, in one round trip: one
// list per key, in order, empty for a key the space does not hold.
func fetch(l *wire.Link, space uint8, keys []uint64, costs *stats.Costs) ([][][]byte, error) {
	respType, resp, err := l.RoundTrip(context.Background(), wire.MsgGetBlobs,
		wire.GetBlobsReq{Space: space, Keys: keys}.Encode(), new(wire.Buffer), costs)
	if err != nil {
		return nil, err
	}
	if respType != wire.MsgBlobs {
		return nil, fmt.Errorf("baseline: unexpected fetch response %v", respType)
	}
	m, err := wire.DecodeBlobsResp(resp, len(keys))
	if err != nil {
		return nil, err
	}
	costs.CreditServer(m.ServerNanos)
	return m.Lists, nil
}
