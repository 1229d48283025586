package ebr

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestGracePeriodOrdering(t *testing.T) {
	t.Parallel()
	m := New()
	var freed []int
	th := m.NewThread(func(x any) { freed = append(freed, x.(int)) })

	th.Begin()
	th.Retire(1)
	th.End()
	if len(freed) != 0 {
		t.Fatal("retiree freed before any grace period")
	}
	// Drive epochs forward; with only one (quiescent) thread the epoch
	// advances freely and bags drain after two advances.
	for i := 0; i < 4*advanceEvery; i++ {
		th.Begin()
		th.Retire(100 + i)
		th.End()
	}
	th.Begin()
	th.End()
	if len(freed) == 0 {
		t.Fatal("nothing freed after multiple epoch advances")
	}
	if freed[0] != 1 {
		t.Fatalf("first freed = %d, want the first retiree", freed[0])
	}
}

func TestActiveThreadBlocksAdvance(t *testing.T) {
	t.Parallel()
	m := New()
	blocker := m.NewThread(func(any) {})
	freedCount := 0
	worker := m.NewThread(func(any) { freedCount++ })

	blocker.Begin() // stays active at the current epoch

	e0 := m.epoch.Load()
	for i := 0; i < 10*advanceEvery; i++ {
		worker.Begin()
		worker.Retire(i)
		worker.End()
	}
	// The epoch may advance once (the blocker announced e0), but a
	// second advance — and therefore any reclamation — requires the
	// blocker to move on: the two-advance grace period.
	if e := m.epoch.Load(); e > e0+1 {
		t.Fatalf("epoch advanced to %d past active thread at %d", e, e0)
	}
	if freedCount != 0 {
		t.Fatal("retirees freed while a pre-epoch thread was active")
	}
	blocker.End()
	for i := 0; i < 10*advanceEvery; i++ {
		worker.Begin()
		worker.Retire(1000 + i)
		worker.End()
	}
	if freedCount == 0 {
		t.Fatal("nothing freed after the blocker left")
	}
}

// TestNoUseAfterFree runs readers traversing a mutable chain while a
// writer unlinks and retires nodes: no reader may ever observe a node
// after its free callback ran.
func TestNoUseAfterFree(t *testing.T) {
	t.Parallel()
	type node struct {
		freed atomic.Bool
		next  atomic.Pointer[node]
	}
	m := New()
	var head atomic.Pointer[node]
	mk := func() *node { return &node{} }
	// chain of 8
	first := mk()
	cur := first
	for i := 0; i < 7; i++ {
		n := mk()
		cur.next.Store(n)
		cur = n
	}
	head.Store(first)

	var violations atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := m.NewThread(func(any) {})
			for {
				select {
				case <-stop:
					return
				default:
				}
				th.Begin()
				for n := head.Load(); n != nil; n = n.next.Load() {
					if n.freed.Load() {
						violations.Add(1)
					}
				}
				th.End()
			}
		}()
	}

	writer := m.NewThread(func(x any) { x.(*node).freed.Store(true) })
	for i := 0; i < 3000; i++ {
		writer.Begin()
		// Unlink the head node, push a replacement, retire the old one.
		old := head.Load()
		n := mk()
		n.next.Store(old.next.Load())
		head.Store(n)
		writer.Retire(old)
		writer.End()
	}
	close(stop)
	wg.Wait()
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d use-after-free observations", v)
	}
}

func TestPoolRoundTrip(t *testing.T) {
	t.Parallel()
	var p Pool
	if p.Get() != nil {
		t.Fatal("empty pool returned an object")
	}
	p.Put(42)
	if got := p.Get(); got != 42 {
		t.Fatalf("Get = %v, want 42", got)
	}
	if p.Recycled.Load() != 1 {
		t.Fatal("recycle count wrong")
	}
}

// TestActiveReportsSection checks the Active query the helpable
// fallback's helper guard relies on: a thread is active exactly while
// it is inside a Begin/End section, through repeated sections, and
// retiring from within a section does not disturb the report.
func TestActiveReportsSection(t *testing.T) {
	t.Parallel()
	m := New()
	th := m.NewThread(func(any) {})
	if th.Active() {
		t.Fatal("fresh thread reports active")
	}
	for i := 0; i < 3; i++ {
		th.Begin()
		if !th.Active() {
			t.Fatalf("section %d: thread inside Begin/End reports inactive", i)
		}
		th.Retire(i)
		if !th.Active() {
			t.Fatalf("section %d: Retire flipped the active report", i)
		}
		th.End()
		if th.Active() {
			t.Fatalf("section %d: thread after End reports active", i)
		}
	}
}

// TestRetireOncePerNode retires each of a set of nodes exactly once
// from whichever of two threads claims it first — the helpable
// fallback's install-claim discipline — and checks every node is freed
// exactly once and none is lost.
func TestRetireOncePerNode(t *testing.T) {
	t.Parallel()
	m := New()
	const nodes = 200
	var freed [nodes]atomic.Uint32
	mk := func() func(any) {
		return func(x any) {
			if i := x.(int); i >= 0 {
				freed[i].Add(1)
			}
		}
	}
	a := m.NewThread(mk())
	b := m.NewThread(mk())

	var claims [nodes]atomic.Bool
	var wg sync.WaitGroup
	for _, th := range []*Thread{a, b} {
		wg.Add(1)
		go func(th *Thread) {
			defer wg.Done()
			for i := 0; i < nodes; i++ {
				th.Begin()
				if claims[i].CompareAndSwap(false, true) {
					th.Retire(i)
				}
				th.End()
			}
		}(th)
	}
	wg.Wait()
	// Drain: epoch advances are driven by Retire, so push sentinel
	// retirees (negative, ignored by the free callback) until every
	// bag has aged out.
	for i := 0; i < 4*advanceEvery; i++ {
		a.Begin()
		a.Retire(-1)
		a.End()
		b.Begin()
		b.Retire(-1)
		b.End()
	}
	for i := range freed {
		if n := freed[i].Load(); n != 1 {
			t.Fatalf("node %d freed %d times, want exactly once", i, n)
		}
	}
}
