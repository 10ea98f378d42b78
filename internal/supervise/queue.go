package supervise

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Queue is a bounded event queue decoupling a producer (the strace
// tailer) from a consumer (the correlator feeder). The overflow policy
// is explicit: Put blocks up to BlockFor while the queue is full, then
// sheds the oldest queued item (counting the drop) and enqueues the new
// one — fresh activity is worth more to a hoarding daemon than the
// oldest unprocessed event, and the tail loop must never stall behind a
// wedged consumer for long.
//
// Unlike a raw channel, the capacity bound is a live setting: SetCap
// resizes the queue without dropping queued items or disturbing blocked
// producers/consumers, which is what lets a config reload retune the
// ingestion buffer on a running daemon.
type Queue[T any] struct {
	// block is the overflow-blocking duration in nanoseconds, atomic so
	// SetBlock can retune it while producers are mid-Put.
	block atomic.Int64
	drops atomic.Uint64

	mu    sync.Mutex
	ring  []T // circular buffer; grows lazily up to capv
	head  int // index of oldest item
	count int
	capv  int
	// nonEmpty/space are broadcast channels: a waiter snapshots the
	// current channel under mu and selects on it; the state change that
	// would unblock it closes the channel (and clears the field) under
	// the same mutex, so wakeups are never lost across resizes.
	nonEmpty chan struct{}
	space    chan struct{}
}

// NewQueue returns a queue holding up to capacity items whose Put
// blocks at most blockFor when full before shedding the oldest item.
// capacity must be ≥ 1; blockFor ≤ 0 sheds immediately when full.
func NewQueue[T any](capacity int, blockFor time.Duration) *Queue[T] {
	if capacity < 1 {
		capacity = 1
	}
	q := &Queue[T]{capv: capacity}
	q.block.Store(int64(blockFor))
	return q
}

// SetBlock changes how long a Put on a full queue blocks before
// shedding (≤ 0 sheds immediately). Puts already blocking keep their
// original deadline.
func (q *Queue[T]) SetBlock(d time.Duration) { q.block.Store(int64(d)) }

// pushLocked appends v (caller holds mu and has checked count < capv)
// and wakes any waiting consumer.
func (q *Queue[T]) pushLocked(v T) {
	if q.count == len(q.ring) {
		// Grow toward capv: double, bounded by the configured capacity.
		n := 2 * len(q.ring)
		if n < 8 {
			n = 8
		}
		if n > q.capv {
			n = q.capv
		}
		next := make([]T, n)
		for i := 0; i < q.count; i++ {
			next[i] = q.ring[(q.head+i)%len(q.ring)]
		}
		q.ring, q.head = next, 0
	}
	q.ring[(q.head+q.count)%len(q.ring)] = v
	q.count++
	if q.nonEmpty != nil {
		close(q.nonEmpty)
		q.nonEmpty = nil
	}
}

// popLocked removes and returns the oldest item (caller holds mu) and
// wakes any producer waiting for room.
func (q *Queue[T]) popLocked() (v T, ok bool) {
	if q.count == 0 {
		return v, false
	}
	var zero T
	v = q.ring[q.head]
	q.ring[q.head] = zero // release the reference
	q.head = (q.head + 1) % len(q.ring)
	q.count--
	if q.space != nil && q.count < q.capv {
		close(q.space)
		q.space = nil
	}
	return v, true
}

// Put enqueues v, applying the overflow policy when full. It returns
// false only when ctx ended before the item could be enqueued (that
// loss is shutdown, not overload, so it is not counted as a drop).
func (q *Queue[T]) Put(ctx context.Context, v T) bool {
	q.mu.Lock()
	if q.count < q.capv {
		q.pushLocked(v)
		q.mu.Unlock()
		return true
	}
	q.mu.Unlock()

	if block := time.Duration(q.block.Load()); block > 0 {
		t := time.NewTimer(block)
		defer t.Stop()
		for {
			q.mu.Lock()
			if q.count < q.capv {
				q.pushLocked(v)
				q.mu.Unlock()
				return true
			}
			if q.space == nil {
				q.space = make(chan struct{})
			}
			sp := q.space
			q.mu.Unlock()
			select {
			case <-sp:
				continue
			case <-ctx.Done():
				return false
			case <-t.C:
			}
			break
		}
	} else if ctx.Err() != nil {
		return false
	}

	// Deadline passed and still full: shed the oldest, keep the newest.
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.count >= q.capv {
		q.popLocked()
		q.drops.Add(1)
	}
	q.pushLocked(v)
	return true
}

// PutWait enqueues v without ever shedding: on a full queue it blocks
// until the consumer frees room, and returns false only when ctx ends
// first. It is for producers whose every item matters more than their
// own latency, such as a cold bootstrap from an existing trace.
func (q *Queue[T]) PutWait(ctx context.Context, v T) bool {
	for {
		q.mu.Lock()
		if q.count < q.capv {
			q.pushLocked(v)
			q.mu.Unlock()
			return true
		}
		if q.space == nil {
			q.space = make(chan struct{})
		}
		sp := q.space
		q.mu.Unlock()
		select {
		case <-sp:
		case <-ctx.Done():
			return false
		}
	}
}

// Get dequeues the oldest item, blocking until one arrives or ctx
// ends. ok is false only on context end.
func (q *Queue[T]) Get(ctx context.Context) (v T, ok bool) {
	for {
		q.mu.Lock()
		if v, ok = q.popLocked(); ok {
			q.mu.Unlock()
			return v, true
		}
		if q.nonEmpty == nil {
			q.nonEmpty = make(chan struct{})
		}
		ne := q.nonEmpty
		q.mu.Unlock()
		select {
		case <-ne:
		case <-ctx.Done():
			// Drain pending items even when ctx is already done: the
			// feeder uses this to empty the queue before the final
			// checkpoint.
			q.mu.Lock()
			v, ok = q.popLocked()
			q.mu.Unlock()
			return v, ok
		}
	}
}

// TryGet dequeues without blocking.
func (q *Queue[T]) TryGet() (v T, ok bool) {
	q.mu.Lock()
	v, ok = q.popLocked()
	q.mu.Unlock()
	return v, ok
}

// Len returns the current queue depth.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.count
}

// Cap returns the configured capacity.
func (q *Queue[T]) Cap() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.capv
}

// SetCap changes the capacity bound on a live queue (n < 1 is clamped
// to 1). Growing wakes producers blocked on a full queue. Shrinking
// below the current depth never discards queued items: the queue simply
// runs over-capacity until the consumer drains it, with the overflow
// policy applying to new Puts in the meantime.
func (q *Queue[T]) SetCap(n int) {
	if n < 1 {
		n = 1
	}
	q.mu.Lock()
	q.capv = n
	if q.space != nil && q.count < q.capv {
		close(q.space)
		q.space = nil
	}
	q.mu.Unlock()
}

// FillPct returns how full the queue is, in whole percent (0-100+;
// values above 100 are possible transiently after a shrink).
func (q *Queue[T]) FillPct() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.capv <= 0 {
		return 0
	}
	return q.count * 100 / q.capv
}

// Drops returns how many items the overflow policy has shed.
func (q *Queue[T]) Drops() uint64 { return q.drops.Load() }
