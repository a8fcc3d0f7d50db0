package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"
)

// Context-aware IO: every client exchange arms the connection with the
// calling context before touching the socket, so a stalled or dead peer can
// never hang the caller past its deadline, and cancelling the context
// interrupts an exchange that is blocked mid-read. This is the one place
// where context semantics meet net.Conn deadlines; everything above (core
// clients, cluster coordinator) goes through ArmContext instead of calling
// SetDeadline directly.

// aLongTimeAgo is a non-zero past deadline: setting it forces any blocked
// read or write on the connection to fail immediately (the net package's
// standard interruption idiom).
var aLongTimeAgo = time.Unix(1, 0)

// ErrNotStarted marks an exchange aborted before any byte touched the
// connection (the context was already dead when ArmContext ran). The
// connection is pristine — callers pooling connections may reuse it.
var ErrNotStarted = errors.New("wire: exchange not started")

// ArmContext ties conn's IO deadlines to ctx for the duration of one
// exchange (one round trip or one pipelined flight):
//
//   - If ctx already carries an error, it is returned and the connection is
//     left untouched.
//   - If ctx has a deadline, it becomes the connection's read+write deadline.
//   - If ctx is cancellable, a context.AfterFunc callback interrupts blocked
//     IO on cancellation; no goroutine waits for it in the meantime.
//
// The returned disarm function must be called exactly once with the
// exchange's outcome. It stops the callback, clears the connection deadline,
// and — when the exchange failed because the context fired — replaces the
// raw net timeout error with one wrapping ctx.Err(), so callers observe
// errors.Is(err, context.DeadlineExceeded) / context.Canceled rather than a
// bare i/o timeout.
//
// An interrupted connection is left with whatever partial frame was in
// flight; it must not be reused for further exchanges.
func ArmContext(ctx context.Context, conn net.Conn) (disarm func(error) error, err error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrNotStarted, err)
	}
	deadline, hasDeadline := ctx.Deadline()
	if !hasDeadline && ctx.Done() == nil {
		return func(opErr error) error { return opErr }, nil
	}
	if hasDeadline {
		conn.SetDeadline(deadline)
	}
	interrupted := make(chan struct{})
	stop := context.AfterFunc(ctx, func() {
		conn.SetDeadline(aLongTimeAgo)
		close(interrupted)
	})
	return func(opErr error) error {
		if !stop() {
			// The callback has started: let it set its past deadline before
			// the deadline is cleared, or an exchange that succeeded anyway
			// would hand its connection back with a dead deadline.
			<-interrupted
		}
		conn.SetDeadline(time.Time{})
		if opErr == nil {
			return nil
		}
		if ctxErr := ctx.Err(); ctxErr != nil {
			return fmt.Errorf("wire: exchange aborted: %w (%v)", ctxErr, opErr)
		}
		// The connection deadline derives solely from ctx, so an IO timeout
		// means the context deadline fired — even when the race between the
		// net poller and the context's own timer lets the socket lose first
		// and ctx.Err() still reads nil here.
		var ne net.Error
		if hasDeadline && errors.As(opErr, &ne) && ne.Timeout() {
			return fmt.Errorf("wire: exchange aborted: %w (%v)", context.DeadlineExceeded, opErr)
		}
		return opErr
	}, nil
}
