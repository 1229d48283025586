// Package abtree implements the relaxed (a,b)-tree of Section 6.2 of
// Brown's "A Template for Implementing Fast Lock-free Trees Using HTM"
// (PODC 2017), based on Jacobsen and Larsen's relaxed-balance variant of
// (a,b)-trees, runnable under every template algorithm the paper
// studies.
//
// The tree is leaf-oriented: key-value pairs live in leaves (up to b per
// leaf), internal nodes hold routing keys and between 2 and b children.
// Balance is relaxed: updates may leave violations — a *tagged* internal
// node (created by a leaf or internal split; the subtree is one level
// too tall) or an *underfull* node (degree below a) — which are repaired
// by separate rebalancing steps, each itself a template operation:
//
//   - root-untag: a tagged root loses its tag (height grows legally),
//   - absorb: a tagged node's children merge into its parent,
//   - split-push-up: a full parent and its tagged child redistribute
//     into two nodes under a new tagged parent (the tag moves up),
//   - join: an underfull node merges with a sibling,
//   - share: an underfull node rebalances keys with a sibling,
//   - root-collapse: a unary internal root is removed (height shrinks).
//
// Every update fixes the violations reachable on its key's search path
// before returning, so a quiescent tree is a proper (a,b)-tree: no tags,
// all degrees in [a,b] (root exempt), uniform leaf depth.
//
// Per the paper, the fast path modifies leaf key/value arrays in place
// (they are transactional cells) and creates nodes only on splits, while
// the middle and fallback paths follow the template discipline of
// replacing nodes; rebalancing steps create new nodes on every path
// (Section 6.2's closing remark).
package abtree

import (
	"fmt"
	"sync"
	"sync/atomic"

	"htmtree/internal/dict"
	"htmtree/internal/ebr"
	"htmtree/internal/engine"
	"htmtree/internal/htm"
	"htmtree/internal/llxscx"
	"htmtree/internal/nodepool"
)

// Default degree bounds (paper Section 7: a=6, b=16 so a node spans four
// cache lines).
const (
	DefaultA = 6
	DefaultB = 16
)

// Node is an (a,b)-tree node.
//
// Internal nodes: keys (immutable routing keys, len = degree-1), children
// (cells, len = degree, fixed at creation — structural changes replace
// the node), tagged (immutable).
//
// Leaves: size and the first size entries of lkeys/lvals hold the pairs
// in ascending key order. They are cells because the fast path mutates
// them in place; the template paths replace the leaf instead and only
// ever read them.
type Node struct {
	hdr    llxscx.Hdr
	leaf   bool
	tagged bool

	keys     []uint64
	children []htm.Ref[Node]

	size  htm.Word
	lkeys []htm.Word
	lvals []htm.Word

	// Subtree aggregates (agg.go). Every node maintains the sum of the
	// keys in its subtree in aggSum; internal nodes additionally hold
	// count/min/max (a leaf derives them from size and lkeys). min/max
	// hold the sentinels ^0/0 while the subtree is empty.
	aggSum   htm.Word
	aggCount htm.Word
	aggMin   htm.Word
	aggMax   htm.Word
}

// Tagged reports the node's tag (exported for tests).
func (n *Node) Tagged() bool { return n.tagged }

// Leaf reports whether the node is a leaf (exported for tests).
func (n *Node) Leaf() bool { return n.leaf }

// kv is a key/value pair in flight between nodes.
type kv struct {
	k, v uint64
}

// newLeaf builds a bootstrap leaf with capacity b holding pairs
// (sorted), bound to clk. Steady-state operations allocate through the
// handle pools instead (Handle.newLeaf in pool.go).
func newLeaf(clk *htm.Clock, b int, pairs []kv) *Node {
	n := &Node{
		leaf:  true,
		lkeys: make([]htm.Word, b),
		lvals: make([]htm.Word, b),
	}
	n.hdr.Bind(clk)
	n.size.Bind(clk)
	n.aggSum.Bind(clk)
	for i := 0; i < b; i++ {
		n.lkeys[i].Bind(clk)
		n.lvals[i].Bind(clk)
	}
	n.size.Init(uint64(len(pairs)))
	n.aggSum.Init(sumPairs(pairs))
	for i, p := range pairs {
		n.lkeys[i].Init(p.k)
		n.lvals[i].Init(p.v)
	}
	return n
}

// newInternal builds a bootstrap internal node bound to clk.
// len(children) must equal len(keys)+1.
func newInternal(clk *htm.Clock, keys []uint64, children []*Node, tagged bool) *Node {
	n := &Node{
		keys:     append([]uint64(nil), keys...),
		children: make([]htm.Ref[Node], len(children)),
		tagged:   tagged,
	}
	n.hdr.Bind(clk)
	n.aggSum.Bind(clk)
	n.aggCount.Bind(clk)
	n.aggMin.Bind(clk)
	n.aggMax.Bind(clk)
	for i, c := range children {
		n.children[i].Bind(clk)
		n.children[i].Init(c)
	}
	initAggs(nil, n)
	return n
}

// degree returns the node's degree: number of children for internal
// nodes, number of pairs for leaves (read through tx).
func (n *Node) degree(tx *htm.Tx) int {
	if n.leaf {
		return int(n.size.Get(tx))
	}
	return len(n.children)
}

// childIndex returns the index of the child a search for key follows.
func childIndex(n *Node, key uint64) int {
	i := 0
	for i < len(n.keys) && key >= n.keys[i] {
		i++
	}
	return i
}

// Config configures a Tree.
type Config struct {
	// A and B are the degree bounds (defaults 6 and 16; B >= 2A-1).
	A, B int
	// Algorithm selects the template implementation (default 3-path).
	Algorithm engine.Algorithm
	// HTM configures the simulated HTM.
	HTM htm.Config
	// Engine overrides attempt budgets and the fallback indicator.
	Engine engine.Config
	// SearchOutsideTx mirrors the BST's Section 8 flag but only turns
	// off immediate recycling of fast-path removals (as out-of-band
	// readers would require): searches, range queries and update
	// descents all keep subscribed reads.
	SearchOutsideTx bool
}

// Tree is a concurrent relaxed (a,b)-tree.
type Tree struct {
	tm  *htm.TM
	eng *engine.Engine
	cfg Config
	// entry is the permanent entry point; entry.children[0] is the root.
	entry *Node

	// sumMu serializes KeySum's shared reclamation context sumRd, which
	// keeps the walk inside the epoch domain so pooled nodes — whose
	// reuse rewrites internal nodes' plain key/child arrays — cannot be
	// recycled under it (the sharding layer runs KeySum concurrently
	// with updates when validating consistent cuts).
	sumMu sync.Mutex
	sumRd *ebr.Thread

	// aggVer is the aggregate seqlock (agg.go): odd exactly while a
	// non-transactional mutator is between its SCX swing and the
	// completion of its aggregate fixup.
	aggVer htm.Word

	// aggFastQ/aggWalkQ count aggregate queries answered by the O(log n)
	// aggregate descent vs the leaf-walk fallback (Stats.Aggregate).
	aggFastQ, aggWalkQ atomic.Uint64
}

// New creates an empty tree.
func New(cfg Config) *Tree {
	if cfg.A == 0 {
		cfg.A = DefaultA
	}
	if cfg.B == 0 {
		cfg.B = DefaultB
	}
	if cfg.A < 2 || cfg.B < 2*cfg.A-1 {
		panic(fmt.Sprintf("abtree: invalid degree bounds a=%d b=%d (need a>=2, b>=2a-1)",
			cfg.A, cfg.B))
	}
	if cfg.Algorithm == 0 {
		cfg.Algorithm = engine.AlgThreePath
	}
	ecfg := cfg.Engine
	ecfg.Algorithm = cfg.Algorithm
	tm := htm.New(cfg.HTM)
	t := &Tree{
		tm:  tm,
		eng: engine.New(ecfg, tm.Clock()),
		cfg: cfg,
	}
	t.entry = newInternal(tm.Clock(), nil,
		[]*Node{newLeaf(tm.Clock(), cfg.B, nil)}, false)
	t.aggVer.Bind(tm.Clock())
	t.sumRd = t.eng.ReclaimReader()
	return t
}

// TM exposes the tree's transactional memory (for statistics).
func (t *Tree) TM() *htm.TM { return t.tm }

// Engine exposes the tree's execution engine (for statistics).
func (t *Tree) Engine() *engine.Engine { return t.eng }

// OpStats returns per-path operation completion counts
// (workload.StatsProvider).
func (t *Tree) OpStats() engine.OpStats { return t.eng.Stats() }

// HTMStats returns per-path transaction commit/abort counts
// (workload.StatsProvider).
func (t *Tree) HTMStats() htm.Stats { return t.tm.Stats() }

// Handle is a per-thread handle to the tree. It owns the thread's node
// pools (pool.go): steady-state operations draw leaves and internal
// nodes (with their key/child arrays) from the pools and removals feed
// them back through epoch-based reclamation.
type Handle struct {
	t   *Tree
	e   *engine.Thread
	clk *htm.Clock

	argKey, argVal uint64
	argLo, argHi   uint64
	resVal         uint64
	resFound       bool
	needFix        bool
	fixMore        bool
	rqOut          []dict.KV
	resAgg         dict.Agg

	// path records the internal nodes on an update's search path, root
	// child first down to the leaf's parent (agg.go maintenance).
	path []*Node
	// pend holds rebalance replacement nodes whose aggregate rebuild is
	// deferred into the non-transactional SCX bracket (prims.scx).
	pend []pendAgg

	// merge scratch: capacity b+1 so a full leaf plus one pair fits.
	buf []kv
	// split scratch for the fast path's routing-key/child argument
	// slices, so splits do not allocate slice headers per operation.
	kbuf []uint64
	cbuf []*Node

	// pool holds the thread's node free lists and attempt state
	// (internal/nodepool; wired to the tree's node kinds in pool.go).
	pool *nodepool.Pool[Node]

	insertOp, deleteOp, searchOp, rqOp, fixOp, aggOp engine.Op
}

var _ dict.Handle = (*Handle)(nil)

// NewHandle registers a per-thread handle.
func (t *Tree) NewHandle() dict.Handle { return t.newHandle() }

func (t *Tree) newHandle() *Handle {
	h := &Handle{
		t:    t,
		e:    t.eng.NewThread(t.tm.NewThread()),
		clk:  t.tm.Clock(),
		buf:  make([]kv, 0, t.cfg.B+1),
		kbuf: make([]uint64, 0, 1),
		cbuf: make([]*Node, 0, 2),
	}
	h.pool = nodepool.New[Node](func(n *Node) bool { return n.leaf }, h.freshNode, h.e)
	h.e.EnableReclaim(h.pool.Release, t.cfg.SearchOutsideTx)
	h.e.SetHelpExec(h.helpExec)
	h.buildOps()
	return h
}

// SetGateBypass exempts this handle's updates from the update monitor's
// quiesce gate (engine.Thread.SetGateBypass). Used by the shard layer's
// key migration, which operates on the tree while holding the gate.
func (h *Handle) SetGateBypass(bypass bool) { h.e.SetGateBypass(bypass) }

// Help drives the currently announced fallback operation (if any) to
// completion on this handle's thread and reports whether it helped
// (dict.Helper). The help body covers itself with the tree's
// reclamation domain, so Help is safe outside any operation — chaos
// harnesses loop it to drain the descriptor of a worker that died
// after announcing.
func (h *Handle) Help() bool { return h.e.H.Help() }

// KeySum returns the sum and count of keys. The walk joins the tree's
// reclamation domain (Begin/End on a dedicated reader context), so
// concurrent updaters cannot recycle nodes under it — in particular,
// internal nodes' plain key/child arrays cannot be rewritten while the
// walk reads them. The sharding layer's consistent cuts rely on this:
// they call KeySum while updates run and discard racing results via
// monitor validation, which requires the racing walk itself to be
// memory-safe on pooled nodes.
func (t *Tree) KeySum() (sum, count uint64) {
	t.sumMu.Lock()
	defer t.sumMu.Unlock()
	t.sumRd.Begin()
	defer t.sumRd.End()
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.leaf {
			sz := int(n.size.Get(nil))
			for i := 0; i < sz; i++ {
				sum += n.lkeys[i].Get(nil)
				count++
			}
			return
		}
		for i := range n.children {
			walk(n.children[i].Get(nil))
		}
	}
	walk(t.entry.children[0].Get(nil))
	return sum, count
}

// CheckInvariants validates the tree structure (quiescent use only).
// With strict set it additionally demands full balance: no tagged
// nodes, all degrees within [a,b] (root exempt below a), and uniform
// leaf depth — which must hold whenever all updates have completed,
// since every update repairs the violations it creates.
//
// It always verifies the maintained subtree aggregates: every node's
// sum/count/min/max cells must equal the tuple recomputed from the
// leaves beneath it (with the empty-subtree sentinels ^0/0 for
// min/max), and the aggregate seqlock must be released.
func (t *Tree) CheckInvariants(strict bool) error {
	if v := t.aggVer.Get(nil); v&1 != 0 {
		return fmt.Errorf("abtree: aggregate seqlock held at quiescence (aggVer=%d)", v)
	}
	root := t.entry.children[0].Get(nil)
	leafDepth := -1
	var walk func(n *Node, lo, hi uint64, depth int, isRoot bool) (dict.Agg, error)
	walk = func(n *Node, lo, hi uint64, depth int, isRoot bool) (dict.Agg, error) {
		agg := dict.Agg{Min: aggEmptyMin, Max: aggEmptyMax}
		if n == nil {
			return agg, fmt.Errorf("abtree: nil node reachable")
		}
		if n.hdr.Marked(nil) {
			return agg, fmt.Errorf("abtree: reachable marked node at depth %d", depth)
		}
		if n.leaf {
			sz := int(n.size.Get(nil))
			if sz > t.cfg.B {
				return agg, fmt.Errorf("abtree: leaf size %d exceeds b=%d", sz, t.cfg.B)
			}
			if strict && !isRoot && sz < t.cfg.A {
				return agg, fmt.Errorf("abtree: underfull leaf (size %d < a=%d)", sz, t.cfg.A)
			}
			prev := uint64(0)
			for i := 0; i < sz; i++ {
				k := n.lkeys[i].Get(nil)
				if i > 0 && k <= prev {
					return agg, fmt.Errorf("abtree: leaf keys unsorted (%d after %d)", k, prev)
				}
				if k < lo || k >= hi {
					return agg, fmt.Errorf("abtree: leaf key %d outside routing range [%d,%d)", k, lo, hi)
				}
				prev = k
				agg.Merge(dict.Agg{Sum: k, Count: 1, Min: k, Max: k})
			}
			if got := n.aggSum.Get(nil); got != agg.Sum {
				return agg, fmt.Errorf("abtree: leaf aggSum %d, keys sum to %d", got, agg.Sum)
			}
			if strict {
				if leafDepth == -1 {
					leafDepth = depth
				} else if leafDepth != depth {
					return agg, fmt.Errorf("abtree: leaves at depths %d and %d", leafDepth, depth)
				}
			}
			return agg, nil
		}
		d := len(n.children)
		if d != len(n.keys)+1 {
			return agg, fmt.Errorf("abtree: internal degree %d with %d keys", d, len(n.keys))
		}
		if d > t.cfg.B {
			return agg, fmt.Errorf("abtree: internal degree %d exceeds b=%d", d, t.cfg.B)
		}
		if d < 1 {
			return agg, fmt.Errorf("abtree: internal node with no children")
		}
		if strict {
			if n.tagged {
				return agg, fmt.Errorf("abtree: tagged node survived rebalancing")
			}
			if !isRoot && d < t.cfg.A {
				return agg, fmt.Errorf("abtree: underfull internal node (degree %d < a=%d)", d, t.cfg.A)
			}
			if isRoot && d < 2 {
				return agg, fmt.Errorf("abtree: unary root survived rebalancing")
			}
		}
		for i := 0; i < len(n.keys); i++ {
			if n.keys[i] < lo || n.keys[i] >= hi {
				return agg, fmt.Errorf("abtree: routing key %d outside [%d,%d)", n.keys[i], lo, hi)
			}
			if i > 0 && n.keys[i] <= n.keys[i-1] {
				return agg, fmt.Errorf("abtree: routing keys unsorted")
			}
		}
		childDepth := depth + 1
		if n.tagged {
			// A tagged node is a height violation: its subtree counts
			// one level shorter for depth purposes.
			childDepth = depth
		}
		for i := range n.children {
			clo, chi := lo, hi
			if i > 0 {
				clo = n.keys[i-1]
			}
			if i < len(n.keys) {
				chi = n.keys[i]
			}
			ca, err := walk(n.children[i].Get(nil), clo, chi, childDepth, false)
			if err != nil {
				return agg, err
			}
			agg.Merge(ca)
		}
		if got := (dict.Agg{
			Sum:   n.aggSum.Get(nil),
			Count: n.aggCount.Get(nil),
			Min:   n.aggMin.Get(nil),
			Max:   n.aggMax.Get(nil),
		}); got != agg {
			return agg, fmt.Errorf(
				"abtree: stale aggregates at depth %d: cells {sum %d count %d min %d max %d}, leaves say {sum %d count %d min %d max %d}",
				depth, got.Sum, got.Count, got.Min, got.Max,
				agg.Sum, agg.Count, agg.Min, agg.Max)
		}
		return agg, nil
	}
	_, err := walk(root, 0, ^uint64(0), 0, true)
	return err
}
