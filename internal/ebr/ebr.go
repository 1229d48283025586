// Package ebr implements DEBRA-style epoch-based reclamation (Brown,
// PODC 2015), the scheme the paper's experiments used, together with
// the Section 9 observation: nodes removed inside a transaction can be
// recycled *immediately* when every observer is also transactional
// (a reader of recycled memory simply aborts), while nodes the
// fallback path may still reference must wait out a grace period.
//
// Go's garbage collector makes reclamation optional, so this package is
// used for node pooling: Retire defers recycling until two epoch
// advances guarantee no thread still holds a reference. Immediate
// recycling needs no epoch machinery, so callers apply it themselves
// (engine.Thread.Retire decides, internal/nodepool keeps such nodes).
package ebr

import (
	"sync"
	"sync/atomic"

	"htmtree/internal/fault"
)

// advanceEvery is how many retirements a thread performs between
// attempts to advance the global epoch.
const advanceEvery = 32

// Manager coordinates epochs across threads.
type Manager struct {
	epoch atomic.Uint64
	// faults arms fault.PointEBRPin (SetFaults): a stall injected right
	// after a thread pins its epoch, which lags the global epoch and
	// starves every other thread's grace periods for the duration.
	faults *fault.Plan

	mu      sync.Mutex
	threads []*Thread
}

// New creates a manager. The free callback receives every object whose
// grace period has expired (typically returning it to a pool).
func New() *Manager {
	m := &Manager{}
	m.epoch.Store(1)
	return m
}

// Thread is a per-goroutine reclamation context.
type Thread struct {
	m       *Manager
	ann     atomic.Uint64 // announced epoch<<1 | active
	bags    [3][]any
	bagEra  [3]uint64
	lastE   uint64 // epoch last seen by Begin (drain gating)
	retires int
	free    func(any)
	faults  *fault.Plan // cached Manager.faults; Begin is per-op hot
}

// SetFaults arms the manager's fault-injection seam. Call before any
// NewThread; threads created earlier do not observe the plan.
func (m *Manager) SetFaults(p *fault.Plan) { m.faults = p }

// NewThread registers a thread whose expired retirees are passed to
// free.
func (m *Manager) NewThread(free func(any)) *Thread {
	t := &Thread{m: m, free: free, faults: m.faults}
	m.mu.Lock()
	m.threads = append(m.threads, t)
	m.mu.Unlock()
	return t
}

// Begin enters an operation: the thread announces the current epoch and
// becomes visible to grace-period computations. Operations must be
// bracketed Begin/End and must not nest. Bags are only scanned when the
// epoch moved since the previous Begin, which keeps the per-operation
// cost of an idle reclamation domain at two atomic operations.
func (t *Thread) Begin() {
	e := t.m.epoch.Load()
	t.ann.Store(e<<1 | 1)
	if t.faults != nil {
		// Pin-stall seam: the thread is announced in epoch e; a stall
		// here holds the global epoch back (tryAdvance skips past no
		// active lagging thread), so reclamation everywhere waits.
		t.faults.Hit(fault.PointEBRPin)
	}
	if e != t.lastE {
		t.lastE = e
		t.drain(e)
	}
}

// End leaves the operation.
func (t *Thread) End() {
	t.ann.Store(t.ann.Load() &^ 1)
}

// Active reports whether the thread is currently inside a Begin/End
// bracket. The helpable-fallback engine consults it before running
// helped operations, which read shared nodes and are only safe under an
// announced epoch.
func (t *Thread) Active() bool {
	return t.ann.Load()&1 == 1
}

// Retire schedules x for recycling once no thread can still hold a
// reference obtained before this call (two epoch advances).
func (t *Thread) Retire(x any) {
	e := t.m.epoch.Load()
	i := e % 3
	if t.bagEra[i] != e {
		// The bag holds retirees from an epoch that is at least 3 old:
		// their grace period has long expired.
		t.flush(i)
		t.bagEra[i] = e
	}
	t.bags[i] = append(t.bags[i], x)
	t.retires++
	if t.retires%advanceEvery == 0 {
		t.tryAdvance()
	}
}

// drain frees bags whose grace period expired as of epoch e.
func (t *Thread) drain(e uint64) {
	for i := uint64(0); i < 3; i++ {
		if t.bagEra[i] != 0 && e >= t.bagEra[i]+2 {
			t.flush(i)
		}
	}
}

func (t *Thread) flush(i uint64) {
	for _, x := range t.bags[i] {
		t.free(x)
	}
	t.bags[i] = t.bags[i][:0]
	t.bagEra[i] = 0
}

// tryAdvance advances the global epoch when every active thread has
// announced it.
func (t *Thread) tryAdvance() {
	e := t.m.epoch.Load()
	t.m.mu.Lock()
	threads := t.m.threads
	t.m.mu.Unlock()
	for _, o := range threads {
		a := o.ann.Load()
		if a&1 == 1 && a>>1 != e {
			return // an active thread lags; no new grace period yet
		}
	}
	t.m.epoch.CompareAndSwap(e, e+1)
}

// Pool is a trivial free-list used as the free target in tests and
// benchmarks; it counts recycled objects so reuse is observable.
type Pool struct {
	mu       sync.Mutex
	items    []any
	Recycled atomic.Uint64
}

// Put stores x for reuse.
func (p *Pool) Put(x any) {
	p.Recycled.Add(1)
	p.mu.Lock()
	p.items = append(p.items, x)
	p.mu.Unlock()
}

// Get returns a recycled object, or nil.
func (p *Pool) Get() any {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.items) == 0 {
		return nil
	}
	x := p.items[len(p.items)-1]
	p.items = p.items[:len(p.items)-1]
	return x
}
