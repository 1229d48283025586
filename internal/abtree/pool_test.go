package abtree

import (
	"testing"

	"htmtree/internal/engine"
	"htmtree/internal/htm"
)

// TestLeafPoolRecyclesOnFastPath drives fast-path joins (deleting down
// to underfull leaves with tiny degree bounds) and checks that removed
// leaves recycle immediately and are reused.
func TestLeafPoolRecyclesOnFastPath(t *testing.T) {
	t.Parallel()
	tr := New(Config{A: 2, B: 4, Algorithm: engine.AlgThreePath})
	h := tr.newHandle()
	for round := 0; round < 20; round++ {
		for k := uint64(1); k <= 64; k++ {
			h.Insert(k, k)
		}
		for k := uint64(1); k <= 64; k++ {
			h.Delete(k)
		}
	}
	st := h.ReclaimStats()
	if st.RetiredFast == 0 {
		t.Fatalf("fast-path rebalancing never recycled a leaf immediately: %+v", st)
	}
	if st.Reused == 0 {
		t.Fatalf("pool never reused a node: %+v", st)
	}
	if err := tr.CheckInvariants(true); err != nil {
		t.Fatal(err)
	}
}

// TestInternalNodesNeverFastRecycle asserts the white-box rule that
// internal nodes — whose routing-key array and child-array length are
// plain memory rewritten on reuse — always take the grace period, even
// when removed by a fast-path commit.
func TestInternalNodesNeverFastRecycle(t *testing.T) {
	t.Parallel()
	tr := New(Config{Algorithm: engine.AlgThreePath})
	h := tr.newHandle()
	h.Insert(1, 1) // establish the handle's reclamation context

	before := h.ReclaimStats()
	n := &Node{leaf: false}
	h.remove(n)
	h.settle(htm.PathFast)
	st := h.ReclaimStats()
	if st.RetiredFast != before.RetiredFast {
		t.Fatalf("internal node recycled immediately on the fast path: %+v", st)
	}
	if st.RetiredGrace != before.RetiredGrace+1 {
		t.Fatalf("internal node not grace-retired: %+v", st)
	}

	// A leaf in the same position recycles immediately.
	l := &Node{leaf: true}
	l.hdr.Bind(tr.tm.Clock())
	h.remove(l)
	h.settle(htm.PathFast)
	if got := h.ReclaimStats(); got.RetiredFast != st.RetiredFast+1 {
		t.Fatalf("leaf not recycled immediately on the fast path: %+v", got)
	}
}

// TestInternalArrayReuse verifies pooled internal nodes hand their
// key/child arrays back out: after churn that creates and destroys
// internal nodes, reuse draws from the pool without growing past the
// capacity-b arrays.
func TestInternalArrayReuse(t *testing.T) {
	t.Parallel()
	tr := New(Config{A: 2, B: 4, Algorithm: engine.AlgThreePath})
	h := tr.newHandle()
	for k := uint64(1); k <= 256; k++ {
		h.Insert(k, k)
	}
	warm := h.ReclaimStats()
	for round := 0; round < 10; round++ {
		for k := uint64(1); k <= 256; k += 2 {
			h.Delete(k)
		}
		for k := uint64(1); k <= 256; k += 2 {
			h.Insert(k, k)
		}
	}
	st := h.ReclaimStats()
	if st.Reused == warm.Reused {
		t.Fatal("rebalancing churn never reused pooled nodes")
	}
	growth := float64(st.Fresh-warm.Fresh) / float64(st.Reused-warm.Reused)
	if growth > 0.5 {
		t.Fatalf("pool mostly missing: %d fresh vs %d reused after warmup", st.Fresh-warm.Fresh, st.Reused-warm.Reused)
	}
	if err := tr.CheckInvariants(true); err != nil {
		t.Fatal(err)
	}
}

// staleRead runs one transaction that, after its snapshot is taken,
// lets mid rebuild n (advancing the clock first, as the removing commit
// of a real stale reader's leaf does), then reads n's size cell — the
// first cell every leaf reader touches. It reports whether the read
// aborted the transaction with a conflict.
func staleRead(t *testing.T, tr *Tree, n *Node, mid func()) (aborted bool) {
	t.Helper()
	var tick htm.Word
	tick.Bind(tr.tm.Clock())
	ok, ab := tr.tm.NewThread().Atomic(htm.PathFast, func(tx *htm.Tx) {
		tick.Set(nil, 1)
		mid()
		n.size.Get(tx)
	})
	if !ok && ab.Cause != htm.CauseConflict {
		t.Fatalf("reader aborted with %v, want conflict", ab.Cause)
	}
	return !ok
}

// publishedLeaf draws a leaf holding one pair and publishes it.
func publishedLeaf(h *Handle, k uint64) *Node {
	n := h.newLeaf([]kv{{k: k, v: k}})
	h.settle(htm.PathFast)
	return n
}

// TestStaleLeafRecycledWithAdvancedVersions: a leaf removed by a
// fast-path commit recycles immediately and is rebuilt with
// version-advancing stores, so a transaction whose snapshot predates
// the removal aborts on reading it.
func TestStaleLeafRecycledWithAdvancedVersions(t *testing.T) {
	t.Parallel()
	tr := New(Config{Algorithm: engine.AlgThreePath})
	h := tr.newHandle()
	h.Insert(1, 1) // establish the handle's reclamation context
	l := publishedLeaf(h, 5)
	before := h.ReclaimStats()
	aborted := staleRead(t, tr, l, func() {
		h.remove(l)
		h.settle(htm.PathFast) // recycled immediately
		if got := h.newLeaf([]kv{{k: 9, v: 9}}); got != l {
			t.Error("pool did not hand the recycled leaf back out")
		}
	})
	if st := h.ReclaimStats(); st.RetiredFast != before.RetiredFast+1 {
		t.Fatalf("fast-path removal did not recycle immediately: %+v", st)
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
	l := publishedLeaf(h, 5)
	h.pool.Release(l) // its grace period expired
	if staleRead(t, tr, l, func() {
		if got := h.newLeaf([]kv{{k: 7, v: 7}, {k: 8, v: 8}}); got != l {
			t.Error("pool did not hand the reclaimed leaf back out")
		}
	}) {
		t.Fatal("rebuilding a reclaimed leaf advanced its versions")
	}
	if got := l.size.Get(nil); got != 2 {
		t.Fatalf("reclaimed leaf size = %d, want 2", got)
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
	l := publishedLeaf(h, 5)
	h.remove(l)
	h.settle(htm.PathFast) // removed by a fast-path commit: stale
	if got := h.newLeaf([]kv{{k: 6, v: 6}}); got != l {
		t.Fatal("pool did not hand the stale leaf back out")
	}
	h.beginAttempt() // the attempt aborted: l returns unpublished
	if !staleRead(t, tr, l, func() {
		if got := h.newLeaf([]kv{{k: 7, v: 7}}); got != l {
			t.Error("pool did not hand the stale leaf out again")
		}
	}) {
		t.Fatal("a handed-back stale leaf was rebuilt without advancing its versions")
	}
}
