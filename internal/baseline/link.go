package baseline

import (
	"fmt"
	"net"
	"time"

	"simcloud/internal/stats"
	"simcloud/internal/wire"
)

// link is a baseline client's connection to the server: one counted socket,
// and the round trip and blob-store requests every baseline protocol runs
// over it.
type link struct {
	conn *wire.CountingConn
}

func dial(addr string) (link, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return link{}, err
	}
	return link{conn: wire.NewCountingConn(conn)}, nil
}

// Close releases the connection.
func (l link) Close() error { return l.conn.Close() }

// roundTrip sends one request and reads its reply, charging the exchange to
// costs; an error reply becomes a *wire.RemoteError.
func (l link) roundTrip(t wire.MsgType, payload []byte, costs *stats.Costs) (wire.MsgType, []byte, error) {
	sentBefore, recvBefore := l.conn.BytesWritten(), l.conn.BytesRead()
	ioStart := time.Now()
	if err := wire.WriteFrame(l.conn, t, payload); err != nil {
		return 0, nil, err
	}
	respType, resp, err := wire.ReadFrame(l.conn)
	costs.CommTime += time.Since(ioStart)
	costs.BytesSent += l.conn.BytesWritten() - sentBefore
	costs.BytesReceived += l.conn.BytesRead() - recvBefore
	costs.RoundTrips++
	if err != nil {
		return 0, nil, err
	}
	if respType == wire.MsgError {
		m, derr := wire.DecodeErrorResp(resp)
		if derr != nil {
			return 0, nil, derr
		}
		return 0, nil, &wire.RemoteError{Msg: m.Msg}
	}
	return respType, resp, nil
}

// upload stores blobs in one space of the server's blob store, in one round
// trip.
func (l link) upload(space uint8, blobs []wire.Blob) (stats.Costs, error) {
	var costs stats.Costs
	start := time.Now()
	respType, resp, err := l.roundTrip(wire.MsgPutBlobs, wire.PutBlobsReq{Space: space, Items: blobs}.Encode(), &costs)
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
	creditServer(&costs, ack.ServerNanos)
	finishCosts(&costs, start)
	return costs, nil
}

// fetch reads the blob lists of keys from one space, in one round trip: one
// list per key, in order, empty for a key the space does not hold.
func (l link) fetch(space uint8, keys []uint64, costs *stats.Costs) ([][][]byte, error) {
	respType, resp, err := l.roundTrip(wire.MsgGetBlobs, wire.GetBlobsReq{Space: space, Keys: keys}.Encode(), costs)
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
	creditServer(costs, m.ServerNanos)
	return m.Lists, nil
}

func creditServer(costs *stats.Costs, serverNanos uint64) {
	st := time.Duration(serverNanos)
	costs.ServerTime += st
	costs.CommTime -= st
	if costs.CommTime < 0 {
		costs.CommTime = 0
	}
}

func finishCosts(costs *stats.Costs, start time.Time) {
	costs.Overall = time.Since(start)
	costs.ClientTime = costs.Overall - costs.ServerTime - costs.CommTime
	if costs.ClientTime < 0 {
		costs.ClientTime = 0
	}
}
