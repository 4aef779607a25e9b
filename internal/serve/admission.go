package serve

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// Limiter errors, mapped to load-shedding statuses by Server.shed.
var (
	// errQueueFull sheds immediately with 429: admitting the request
	// would grow the wait queue beyond its bound.
	errQueueFull = errors.New("server overloaded: wait queue full")
	// errDeadline sheds with 503: the request's deadline expired while
	// it waited for an inflight slot.
	errDeadline = errors.New("server overloaded: timed out waiting for capacity")
)

// limiter is the admission controller: at most maxInflight requests
// compute concurrently, at most queueDepth more wait, everything beyond
// that is shed immediately. Bounding the queue bounds worst-case latency:
// an admitted request waits behind at most queueDepth predecessors, and
// its own deadline caps even that.
type limiter struct {
	slots   chan struct{} // buffered to maxInflight; holding a token = computing
	depth   int64
	waiting atomic.Int64
	mx      *metrics
}

func newLimiter(maxInflight, queueDepth int, mx *metrics) *limiter {
	return &limiter{
		slots: make(chan struct{}, maxInflight),
		depth: int64(queueDepth),
		mx:    mx,
	}
}

// acquire obtains an inflight slot, queueing up to the depth bound until
// ctx ends or the deadline passes. It returns errQueueFull or
// errDeadline when the request should be shed instead.
func (l *limiter) acquire(ctx context.Context, deadline time.Time) error {
	select {
	case l.slots <- struct{}{}:
		return nil
	default:
	}
	// Claim a queue place only while one is free, so the depth never
	// reads above its bound, not even for an instant.
	w := l.waiting.Load()
	for {
		if w >= l.depth {
			l.mx.shedQueueFull.Inc()
			return errQueueFull
		}
		if l.waiting.CompareAndSwap(w, w+1) {
			break
		}
		w = l.waiting.Load()
	}
	l.mx.queueDepth.Set(w + 1)
	defer func() {
		l.mx.queueDepth.Set(l.waiting.Add(-1))
	}()
	ctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	select {
	case l.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		l.mx.shedDeadline.Inc()
		return errDeadline
	}
}

// release returns an acquired slot.
func (l *limiter) release() { <-l.slots }
