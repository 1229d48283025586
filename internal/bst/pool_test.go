package bst

import (
	"testing"

	"htmtree/internal/engine"
	"htmtree/internal/htm"
)

// TestPoolReuseSteadyState: a delete/insert cycle on the fast path must
// reach a steady state where every insert draws from the pool and no
// fresh nodes are allocated.
func TestPoolReuseSteadyState(t *testing.T) {
	t.Parallel()
	tr := New(Config{Algorithm: engine.AlgThreePath})
	h := tr.newHandle()
	for k := uint64(1); k <= 64; k++ {
		h.Insert(k, k)
	}
	// Warm the grace-period circulation: internal nodes come back from
	// the epoch bags in batches, so the pool needs a few epochs' worth
	// of nodes in flight before it sustains the cycle alone.
	for i := 0; i < 300; i++ {
		k := uint64(i%64) + 1
		h.Delete(k)
		h.Insert(k, k)
	}
	warm := h.ReclaimStats()
	for i := 0; i < 1000; i++ {
		k := uint64(i%64) + 1
		h.Delete(k)
		h.Insert(k, k)
	}
	st := h.ReclaimStats()
	if st.Reused == warm.Reused {
		t.Fatal("steady-state cycle never reused a pooled node")
	}
	if st.Fresh != warm.Fresh {
		t.Fatalf("steady-state cycle heap-allocated %d nodes", st.Fresh-warm.Fresh)
	}
	if st.RetiredFast == warm.RetiredFast {
		t.Fatal("fast-path deletions never recycled immediately")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRetireFastGatedByFallbackReader is the white-box reclamation
// check: while an operation is (simulated) live on the fallback path,
// removals must not recycle immediately — the deleting operation is
// pushed off the fast path by the presence indicator, and its nodes
// take the grace period, so none can be handed out under the reader.
func TestRetireFastGatedByFallbackReader(t *testing.T) {
	t.Parallel()
	ind := engine.NewSNZIIndicator()
	tr := New(Config{
		Algorithm: engine.AlgThreePath,
		Engine:    engine.Config{Indicator: ind},
	})
	h := tr.newHandle()
	for k := uint64(1); k <= 64; k++ {
		h.Insert(k, k)
	}

	// Unobstructed: a fast-path delete recycles immediately — the nodes
	// are in the pool before the next operation starts.
	before := h.ReclaimStats()
	h.Delete(10)
	after := h.ReclaimStats()
	if after.RetiredFast == before.RetiredFast {
		t.Fatalf("unobstructed fast-path delete did not recycle immediately: %+v", after)
	}
	if h.PoolSize() == 0 {
		t.Fatal("immediately recycled nodes not in the pool")
	}

	// Drain the pool back into the tree so pool-size observations below
	// start from zero.
	for h.PoolSize() > 0 {
		k := uint64(1000 + h.PoolSize())
		h.Insert(k, k)
	}

	// A live fallback-path operation (simulated by arriving on the
	// engine's presence indicator, exactly what runFallbackLoop does)
	// must force the delete off the fast path and its removals to the
	// grace period: nothing is handed out while the reader is live.
	depart := ind.Arrive()
	mid := h.ReclaimStats()
	poolBefore := h.PoolSize()
	h.Delete(20)
	st := h.ReclaimStats()
	if st.RetiredFast != mid.RetiredFast {
		t.Fatalf("immediate recycling happened while a fallback-path reader was live: %+v", st)
	}
	if st.RetiredGrace == mid.RetiredGrace {
		t.Fatal("delete under a live fallback reader retired nothing")
	}
	if h.PoolSize() != poolBefore {
		t.Fatal("grace-period node reached the pool while the fallback reader was live")
	}
	depart()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSearchOutsideTxDisablesFastRecycle: with Section 8 out-of-band
// searches enabled, every path has non-transactional readers, so no
// removal may recycle immediately.
func TestSearchOutsideTxDisablesFastRecycle(t *testing.T) {
	t.Parallel()
	tr := New(Config{Algorithm: engine.AlgThreePath, SearchOutsideTx: true})
	h := tr.newHandle()
	for k := uint64(1); k <= 64; k++ {
		h.Insert(k, k)
	}
	for k := uint64(1); k <= 64; k++ {
		h.Delete(k)
	}
	st := h.ReclaimStats()
	if st.RetiredFast != 0 {
		t.Fatalf("immediate recycling used despite out-of-band searches: %+v", st)
	}
	if st.RetiredGrace == 0 {
		t.Fatal("deletes retired nothing")
	}
}

// TestTwoPathConcNeverFastRecycles: 2-path-con's "fast" path is the
// instrumented body running concurrently with the fallback path, so the
// Section 9 immediate-recycle rule never applies.
func TestTwoPathConcNeverFastRecycles(t *testing.T) {
	t.Parallel()
	tr := New(Config{Algorithm: engine.AlgTwoPathConc})
	h := tr.newHandle()
	for k := uint64(1); k <= 32; k++ {
		h.Insert(k, k)
	}
	for k := uint64(1); k <= 32; k++ {
		h.Delete(k)
	}
	if st := h.ReclaimStats(); st.RetiredFast != 0 {
		t.Fatalf("2-path-con recycled immediately: %+v", st)
	}
}

// staleRead runs one transaction that, after its snapshot is taken,
// lets mid rebuild n (advancing the clock first, as the removing commit
// of a real stale reader's leaf does), then reads n's key. It reports
// whether the read aborted the transaction with a conflict.
func staleRead(t *testing.T, tr *Tree, n *Node, mid func()) (aborted bool) {
	t.Helper()
	var tick htm.Word
	tick.Bind(tr.tm.Clock())
	ok, ab := tr.tm.NewThread().Atomic(htm.PathFast, func(tx *htm.Tx) {
		tick.Set(nil, 1)
		mid()
		n.key.GetStable(tx)
	})
	if !ok && ab.Cause != htm.CauseConflict {
		t.Fatalf("reader aborted with %v, want conflict", ab.Cause)
	}
	return !ok
}

// TestStaleLeafRecycledWithAdvancedVersions: a leaf recycled immediately
// by a fast-path delete is rebuilt with version-advancing stores, so a
// transaction whose snapshot predates the delete aborts on reading it.
func TestStaleLeafRecycledWithAdvancedVersions(t *testing.T) {
	t.Parallel()
	tr := New(Config{Algorithm: engine.AlgThreePath})
	h := tr.newHandle()
	for k := uint64(1); k <= 8; k++ {
		h.Insert(k, k)
	}
	_, _, l := tr.search(nil, 5)
	before := h.ReclaimStats()
	aborted := staleRead(t, tr, l, func() {
		h.Delete(5)      // fast path: l is recycled immediately
		h.Insert(100, 1) // draws l back out of the pool
	})
	if st := h.ReclaimStats(); st.RetiredFast == before.RetiredFast {
		t.Fatalf("fast-path delete did not recycle immediately: %+v", st)
	}
	if l.Key() != 100 {
		t.Fatalf("recycled leaf holds key %d, want 100 (not reused)", l.Key())
	}
	if !aborted {
		t.Fatal("stale reader read a recycled leaf without aborting")
	}
}

// TestReclaimedLeafKeepsVersions: a leaf back from a grace period has no
// readers, so it is rebuilt with plain stores that leave its version
// words alone — a transaction that began before the rebuild reads the
// new content without aborting.
func TestReclaimedLeafKeepsVersions(t *testing.T) {
	t.Parallel()
	tr := New(Config{Algorithm: engine.AlgThreePath})
	h := tr.newHandle()
	n := h.freshNode(true)
	h.pool.Release(n) // its grace period expired
	if staleRead(t, tr, n, func() {
		if got := h.newLeaf(7, 70); got != n {
			t.Error("pool did not hand the reclaimed leaf back out")
		}
	}) {
		t.Fatal("rebuilding a reclaimed leaf advanced its versions")
	}
	if n.Key() != 7 {
		t.Fatalf("reclaimed leaf holds key %d, want 7", n.Key())
	}
}

// TestStaleLeafStaysStaleWhenHandedBack: a stale leaf drawn by an
// attempt that aborts goes back to the pool still stale, so the next
// attempt that draws it recycles it again rather than rebuilding it
// with plain stores.
func TestStaleLeafStaysStaleWhenHandedBack(t *testing.T) {
	t.Parallel()
	tr := New(Config{Algorithm: engine.AlgThreePath})
	h := tr.newHandle()
	h.Insert(1, 1) // establish the handle's reclamation context
	l := h.newLeaf(5, 50)
	h.settle(htm.PathFast) // published
	h.remove(l)
	h.settle(htm.PathFast) // removed by a fast-path commit: stale
	if got := h.newLeaf(6, 60); got != l {
		t.Fatal("pool did not hand the stale leaf back out")
	}
	h.beginAttempt() // the attempt aborted: l returns unpublished
	if !staleRead(t, tr, l, func() {
		if got := h.newLeaf(7, 70); got != l {
			t.Error("pool did not hand the stale leaf out again")
		}
	}) {
		t.Fatal("a handed-back stale leaf was rebuilt without advancing its versions")
	}
}
