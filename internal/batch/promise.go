package batch

import (
	"sync/atomic"

	"htmtree/internal/dict"
)

// PointResult is the result of an asynchronous Insert, Delete, or
// Search: Insert and Delete report the previous value and whether the
// key existed; Search reports the value found and whether the key was
// present.
type PointResult struct {
	Val uint64
	OK  bool
}

// Point-promise state bits.
const (
	stDone    uint32 = 1 << iota // result published
	stOK                         // PointResult.OK of the published result
	stWaiters                    // a waiter entry exists in the pipeline
)

// slot is one point operation's result cell: the value and a state
// word holding the done and ok bits. A pipeline allocates slots in one
// block per MaxOps operations; they hold no pointers, so a block is 16
// bytes per op with no malloc header, and the collector never scans it.
// Slots are never reused: a promise stays valid, and keeps its result,
// for as long as the caller holds it.
type slot struct {
	val   uint64
	state atomic.Uint32
}

// complete publishes the result and reports whether a waiter entry
// must be woken (Pipeline.wake). The value is written before the done
// bit, so any reader that observes done also observes the value.
func (s *slot) complete(r PointResult) (waited bool) {
	s.val = r.Val
	bits := stDone
	if r.OK {
		bits |= stOK
	}
	return s.or(bits)&stWaiters != 0
}

// or sets bits in the state word and returns the previous state. It is
// a CompareAndSwap loop rather than atomic.Uint32.Or, whose returned
// old value the go1.24.0 amd64 compiler miscompiles (it clobbers a
// live register).
func (s *slot) or(bits uint32) uint32 {
	for {
		old := s.state.Load()
		if s.state.CompareAndSwap(old, old|bits) {
			return old
		}
	}
}

func (s *slot) result(st uint32) PointResult {
	return PointResult{Val: s.val, OK: st&stOK != 0}
}

// PointPromise is the future of one asynchronous point operation: its
// result slot and the owning pipeline. The zero value is not usable;
// promises are created by a Pipeline when an operation is enqueued and
// completed exactly once when its batch executes.
//
// The blocking and callback state a Wait or an early OnComplete needs
// lives in the pipeline (see Pipeline.waitFor), so an operation that is
// only waited on after its batch completed, the common shape, costs
// nothing beyond its slot.
//
// Wait blocks until the result is available — flushing the owning
// pipeline first if the operation is still buffered, so waiting on an
// unflushed op completes instead of deadlocking — and is idempotent:
// every call returns the same result. OnComplete registers a callback
// instead; callbacks run on the goroutine that completes the promise
// (or immediately, on the caller, if it already completed) and must
// not call back into the owning pipeline.
type PointPromise struct {
	s *slot
	p *Pipeline
}

// Done reports whether the result is available without blocking.
func (f PointPromise) Done() bool { return f.s.state.Load()&stDone != 0 }

// Wait returns the operation's result, blocking until it is available.
// If the operation is still sitting in its pipeline's buffer, Wait
// flushes the pipeline first. Calling Wait more than once is allowed
// and returns the same result every time.
func (f PointPromise) Wait() PointResult {
	s := f.s
	if st := s.state.Load(); st&stDone != 0 {
		return s.result(st)
	}
	f.p.Flush()
	if st := s.state.Load(); st&stDone != 0 {
		return s.result(st)
	}
	// Still pending: another goroutine's flush (a timer firing between
	// our check and our Flush) holds the op. Block until it completes.
	if w := f.p.waitFor(s, nil); w != nil {
		<-w.done
	}
	return s.result(s.state.Load())
}

// OnComplete registers fn to run with the result when it becomes
// available. If the promise already completed, fn runs immediately on
// the calling goroutine; otherwise it runs on the goroutine executing
// the batch. fn must not call back into the owning pipeline (enqueue,
// Flush, or Wait on an unflushed promise): completion runs outside the
// pipeline lock, but a callback that re-enters a pipeline mid-flush
// would interleave with the very batch completing it.
func (f PointPromise) OnComplete(fn func(PointResult)) {
	s := f.s
	if st := s.state.Load(); st&stDone != 0 {
		fn(s.result(st))
		return
	}
	if f.p.waitFor(s, fn) == nil {
		fn(s.result(s.state.Load()))
	}
}

// waiter is the blocking and callback state of one promise that was
// waited on, or given a callback, before it completed.
type waiter struct {
	done chan struct{} // made by the first blocking Wait
	cbs  []func(PointResult)
}

// waitFor registers interest in an incomplete promise: a blocking Wait
// (fn == nil) gets a waiter with a channel to block on, an OnComplete
// appends fn. It returns nil when the promise completed meanwhile, in
// which case the caller reads the result itself.
//
// The waiters bit is set under p.mu before the entry is stored, and
// complete sets the done bit with one atomic update, so exactly one of two
// things happens: the waiter sees done and registers nothing, or the
// completer sees the waiters bit and wakes the entry, which it can only
// look up after this registration released p.mu.
func (p *Pipeline) waitFor(s *slot, fn func(PointResult)) *waiter {
	p.mu.Lock()
	defer p.mu.Unlock()
	if s.or(stWaiters)&stDone != 0 {
		return nil
	}
	w := p.waiters[s]
	if w == nil {
		if p.waiters == nil {
			p.waiters = make(map[*slot]*waiter)
		}
		w = &waiter{}
		p.waiters[s] = w
	}
	if fn != nil {
		w.cbs = append(w.cbs, fn)
	} else if w.done == nil {
		w.done = make(chan struct{})
	}
	return w
}

// wake releases the waiter entry of a promise complete reported as
// waited on: blocked Waits return and callbacks run, in registration
// order, on the calling (completing) goroutine outside p.mu.
func (p *Pipeline) wake(s *slot) {
	p.mu.Lock()
	w := p.waiters[s]
	delete(p.waiters, s)
	p.mu.Unlock()
	if w.done != nil {
		close(w.done)
	}
	r := s.result(s.state.Load())
	for _, cb := range w.cbs {
		cb(r)
	}
}

// RangePromise is the future of an asynchronous range query. The query
// runs before Pipeline.RangeQuery returns, so the promise is born
// complete; it exists for API symmetry (OnComplete chains).
type RangePromise struct {
	pairs []dict.KV
}

// Wait returns the query's pairs in ascending key order.
func (r *RangePromise) Wait() []dict.KV { return r.pairs }

// Done reports whether the result is available; always true.
func (r *RangePromise) Done() bool { return true }

// OnComplete runs fn with the result on the calling goroutine.
func (r *RangePromise) OnComplete(fn func([]dict.KV)) { fn(r.pairs) }
