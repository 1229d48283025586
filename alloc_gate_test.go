package htmtree_test

import (
	"runtime"
	"testing"
	"time"

	"htmtree"
	"htmtree/internal/hist"
)

// Allocation-regression gate (PR 5 acceptance): steady-state point
// operations on the pooled BST and (a,b)-tree must not allocate. Inserts
// draw nodes from the per-thread pools that deletions refill through
// epoch-based reclamation, value updates mutate leaves in place, and the
// engine/htm plumbing (transaction logs, op closures, monitor wrappers)
// is allocated once per handle — so after warmup, AllocsPerRun must
// observe zero.
//
// CI runs this test explicitly in the bench-smoke job; a regression here
// means something on the hot path started allocating again.

// warmups populate the tree, the handle's pools, and every
// amortized-growth buffer (transaction logs, scratch slices) before
// measurement.
const (
	gateKeys    = 512
	gateWarmups = 200
)

func gateCheck(t *testing.T, name string, avg float64) {
	t.Helper()
	if avg != 0 {
		t.Errorf("%s: %.2f allocs/op in steady state, want 0", name, avg)
	}
}

func TestAllocGateBSTPointOps(t *testing.T) {
	tree, err := htmtree.NewBST(htmtree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := tree.NewHandle()
	for k := uint64(1); k <= gateKeys; k++ {
		h.Insert(k, k)
	}
	k := uint64(gateKeys / 2)
	for i := 0; i < gateWarmups; i++ {
		h.Delete(k)
		h.Insert(k, k)
	}

	gateCheck(t, "bst delete+insert", testing.AllocsPerRun(200, func() {
		h.Delete(k)
		h.Insert(k, k)
	}))
	gateCheck(t, "bst value update", testing.AllocsPerRun(200, func() {
		h.Insert(k, 7)
	}))
	gateCheck(t, "bst search", testing.AllocsPerRun(200, func() {
		h.Search(k)
	}))
}

func TestAllocGateABTreePointOps(t *testing.T) {
	tree, err := htmtree.NewABTree(htmtree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := tree.NewHandle()
	for k := uint64(1); k <= gateKeys; k++ {
		h.Insert(k, k)
	}
	k := uint64(gateKeys / 2)
	for i := 0; i < gateWarmups; i++ {
		h.Delete(k)
		h.Insert(k, k)
	}

	gateCheck(t, "abtree delete+insert", testing.AllocsPerRun(200, func() {
		h.Delete(k)
		h.Insert(k, k)
	}))
	gateCheck(t, "abtree value update", testing.AllocsPerRun(200, func() {
		h.Insert(k, 7)
	}))
	gateCheck(t, "abtree search", testing.AllocsPerRun(200, func() {
		h.Search(k)
	}))
}

// TestAllocGateAggregateQueries gates the PR 8 aggregate query paths:
// steady-state RangeAgg (and the whole-tree Count/Min/Max forms) on an
// unsharded tree must not allocate — the (a,b)-tree's transactional
// descent uses handle-resident scratch, its LLX-walk fallback a
// fixed-depth node stack, and the BST control reuses the handle's
// retained range-query buffer. (Sharded RangeAgg fans out through
// closures and is exempt; the gate covers the tree-level hot path.)
func TestAllocGateAggregateQueries(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(htmtree.Config) (*htmtree.Tree, error)
	}{
		{"abtree", htmtree.NewABTree},
		{"bst", htmtree.NewBST},
	} {
		tree, err := tc.mk(htmtree.Config{})
		if err != nil {
			t.Fatal(err)
		}
		h := tree.NewHandle()
		for k := uint64(1); k <= gateKeys; k++ {
			h.Insert(k, k)
		}
		aggCycle := func() {
			if _, err := h.RangeAgg(gateKeys/4, 3*gateKeys/4); err != nil {
				t.Fatal(err)
			}
			if _, err := h.Count(); err != nil {
				t.Fatal(err)
			}
			if _, _, err := h.Min(); err != nil {
				t.Fatal(err)
			}
			if _, _, err := h.Max(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < gateWarmups; i++ {
			aggCycle()
		}
		gateCheck(t, tc.name+" aggregate queries", testing.AllocsPerRun(200, aggCycle))
	}
}

// TestAllocGateLatencyCapture gates the PR 7 latency instrumentation:
// the per-operation capture the workload driver performs under
// MeasureLatency — a clock read, the operation, a histogram Record —
// must not allocate, or measuring latency would distort the very tail
// it measures with GC pauses.
func TestAllocGateLatencyCapture(t *testing.T) {
	tree, err := htmtree.NewBST(htmtree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := tree.NewHandle()
	for k := uint64(1); k <= gateKeys; k++ {
		h.Insert(k, k)
	}
	k := uint64(gateKeys / 2)
	var lh hist.Hist
	for i := 0; i < gateWarmups; i++ {
		t0 := time.Now()
		h.Delete(k)
		h.Insert(k, k)
		lh.Record(uint64(time.Since(t0)))
	}
	gateCheck(t, "latencied delete+insert", testing.AllocsPerRun(200, func() {
		t0 := time.Now()
		h.Delete(k)
		h.Insert(k, k)
		lh.Record(uint64(time.Since(t0)))
	}))
	if lh.Count() == 0 || lh.Quantile(0.99) == 0 {
		t.Fatal("capture recorded nothing")
	}
}

// TestAllocGateObservedPointOps gates the PR 9 observability layer:
// steady-state point operations on a tree built with
// Config.Observability — latency sampling, flight-recorder events and
// trace regions armed at their defaults — must still not allocate. The
// instrumentation was designed for this: metric families are read
// closures over counters the engine already maintains, sampled latencies
// land in a preallocated atomic histogram, events are four atomic word
// stores into a preallocated ring, and the trace region is the
// runtime's shared no-op when tracing is off.
func TestAllocGateObservedPointOps(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(htmtree.Config) (*htmtree.Tree, error)
	}{
		{"bst", htmtree.NewBST},
		{"abtree", htmtree.NewABTree},
		{"sharded-abtree", htmtree.NewShardedABTree},
	} {
		tree, err := tc.mk(htmtree.Config{Observability: &htmtree.ObsConfig{}})
		if err != nil {
			t.Fatal(err)
		}
		if tree.Obs() == nil {
			t.Fatalf("%s: Observability set but Obs() == nil", tc.name)
		}
		h := tree.NewHandle()
		for k := uint64(1); k <= gateKeys; k++ {
			h.Insert(k, k)
		}
		k := uint64(gateKeys / 2)
		for i := 0; i < gateWarmups; i++ {
			h.Delete(k)
			h.Insert(k, k)
		}
		gateCheck(t, tc.name+" observed delete+insert", testing.AllocsPerRun(200, func() {
			h.Delete(k)
			h.Insert(k, k)
		}))
		gateCheck(t, tc.name+" observed search", testing.AllocsPerRun(200, func() {
			h.Search(k)
		}))
		if tree.Obs().LatencySnapshot().Count() == 0 {
			t.Errorf("%s: no sampled latencies recorded", tc.name)
		}
		if len(tree.Obs().Events()) == 0 {
			t.Errorf("%s: no flight-recorder events recorded", tc.name)
		}
	}
}

// allocsPerRun is testing.AllocsPerRun that also reports bytes: the
// mean objects and bytes allocated per call of f, measured at
// GOMAXPROCS 1 after one warm-up call.
func allocsPerRun(runs int, f func()) (objects, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestAllocGateBatchCycle gates the batch layer's steady state: a
// Handle.Batch cycle of 64 point ops on a warmed 8-shard (a,b)-tree —
// 32 insert/delete pairs, each on a fresh odd key, then Flush, then
// Wait on every future — allocates at most the one result-slot block
// per flush (64 pointer-free slots of 16 B). Flush buffers are reused,
// and a promise waited on only after its batch completed needs no
// channel, lock or callback state.
func TestAllocGateBatchCycle(t *testing.T) {
	tree, err := htmtree.NewShardedABTree(htmtree.Config{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	h := tree.NewHandle()
	for k := uint64(2); k <= 2*gateKeys; k += 2 {
		h.Insert(k, k)
	}
	ah := h.Batch()
	var futs [64]htmtree.PointFuture
	next := uint64(0)
	cycle := func() {
		for i := 0; i < len(futs); i += 2 {
			k := 2*(next%gateKeys) + 1
			next++
			futs[i] = ah.Insert(k, k)
			futs[i+1] = ah.Delete(k)
		}
		ah.Flush()
		for i := range futs {
			if _, ok := futs[i].Wait(); ok != (i%2 == 1) {
				t.Fatalf("future %d: ok = %v on a fresh key's insert/delete pair", i, ok)
			}
		}
	}
	for i := 0; i < gateWarmups; i++ {
		cycle()
	}
	objs, bytes := allocsPerRun(200, cycle)
	if objs > 1 || bytes > 1600 {
		t.Errorf("batch cycle: %.2f objects, %.0f B per 64-op cycle, want <= 1 object and <= 1600 B", objs, bytes)
	}
}

// TestAllocGateLLXRangeQuery gates the (a,b)-tree's LLX-validated range
// query walk, the fallback path of every range query too large for a
// transaction: on the non-HTM template, where every query takes it, a
// 5000-key RangeQuery into a reused buffer must not allocate (child
// snapshots live on the stack).
func TestAllocGateLLXRangeQuery(t *testing.T) {
	const keys = 5000
	tree, err := htmtree.NewABTree(htmtree.Config{Algorithm: htmtree.NonHTM})
	if err != nil {
		t.Fatal(err)
	}
	h := tree.NewHandle()
	for k := uint64(1); k <= keys; k++ {
		h.Insert(k, k)
	}
	var out []htmtree.KV
	rq := func() {
		if out = h.RangeQuery(1, keys+1, out[:0]); len(out) != keys {
			t.Fatalf("RangeQuery returned %d pairs, want %d", len(out), keys)
		}
	}
	for i := 0; i < 10; i++ {
		rq()
	}
	gateCheck(t, "abtree LLX range query", testing.AllocsPerRun(50, rq))
}
