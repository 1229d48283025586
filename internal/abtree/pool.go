package abtree

import (
	"htmtree/internal/htm"
	"htmtree/internal/nodepool"
)

// Node pooling (paper Section 9): the shared discipline lives in
// internal/nodepool; this file wires it to the (a,b)-tree's node kinds.
//
//   - Leaves may recycle immediately after fast-path removals: every
//     reuse-mutable leaf field is a transactional cell (size, lkeys,
//     lvals, header), so a stale transactional reader of a recycled
//     leaf aborts on the version-advancing Recycle stores. The leaf
//     flag and the array headers are write-once (pools are segregated
//     by kind and arrays are allocated at capacity b). Leaves back from
//     a grace period have no readers and are rebuilt with plain stores,
//     like internal nodes (nodepool.Provenance).
//   - Internal nodes always wait out a grace period: their routing-key
//     array and the length of their child array are plain memory that
//     reuse rewrites, which is only safe once no reader can hold the
//     node — exactly what two epoch advances guarantee (every operation
//     is bracketed by the engine's ebr Begin/End).

// ReclaimStats counts a handle's node-pool activity. Exported for tests
// and diagnostics.
type ReclaimStats = nodepool.Stats

// ReclaimStats returns a snapshot of the handle's pool counters.
func (h *Handle) ReclaimStats() ReclaimStats { return h.pool.Stats() }

// PoolSize returns the number of nodes currently in the handle's free
// lists (white-box tests).
func (h *Handle) PoolSize() int { return h.pool.Size() }

// freshNode heap-allocates a node shell of the given kind (the pool's
// fresh callback); newLeaf/newInternal bind and size the arrays.
func (h *Handle) freshNode(leaf bool) *Node {
	n := &Node{leaf: leaf}
	n.hdr.Bind(h.clk)
	return n
}

// newLeaf builds a leaf holding pairs (sorted) from the pool. Only the
// first len(pairs) entries are (re-)initialized: a reader always reads
// the size cell first, and entries beyond the new size are never read
// as content. A stale leaf (recycled immediately) uses version-advancing
// Recycle stores, so a stale reader aborts on the size cell, and
// entries beyond the recycled size keep their old value and version —
// exactly what the reader's snapshot is entitled to see. A reclaimed
// leaf has no readers and takes plain stores.
func (h *Handle) newLeaf(pairs []kv) *Node {
	b := h.t.cfg.B
	n, prov := h.pool.Take(true)
	switch prov {
	case nodepool.Stale:
		n.hdr.Recycle()
		n.size.Recycle(uint64(len(pairs)))
		n.aggSum.Recycle(sumPairs(pairs))
		for i, p := range pairs {
			n.lkeys[i].Recycle(p.k)
			n.lvals[i].Recycle(p.v)
		}
		return n
	case nodepool.Reclaimed:
		n.hdr.Reset()
		initLeafCells(n, pairs)
		return n
	}
	n.lkeys = make([]htm.Word, b)
	n.lvals = make([]htm.Word, b)
	for i := 0; i < b; i++ {
		n.lkeys[i].Bind(h.clk)
		n.lvals[i].Bind(h.clk)
	}
	n.size.Bind(h.clk)
	n.aggSum.Bind(h.clk)
	initLeafCells(n, pairs)
	return n
}

// initLeafCells fills a leaf no thread can hold with plain stores.
func initLeafCells(n *Node, pairs []kv) {
	n.size.Init(uint64(len(pairs)))
	n.aggSum.Init(sumPairs(pairs))
	for i, p := range pairs {
		n.lkeys[i].Init(p.k)
		n.lvals[i].Init(p.v)
	}
}

// newInternal builds an internal node from the pool, reusing the pooled
// node's key and child arrays when they have capacity. Internal nodes
// only ever reach the pool after a grace period, so no reader holds
// them here and the plain rewrites are safe.
func (h *Handle) newInternal(keys []uint64, children []*Node, tagged bool) *Node {
	n, prov := h.pool.Take(false)
	recycled := prov == nodepool.Reclaimed
	n.tagged = tagged
	if recycled && cap(n.keys) >= len(keys) && cap(n.children) >= len(children) {
		n.hdr.Reset()
		n.keys = n.keys[:len(keys)]
		copy(n.keys, keys)
		n.children = n.children[:len(children)]
		for i, c := range children {
			n.children[i].Init(c)
		}
		return n
	}
	if recycled {
		n.hdr.Reset()
	}
	// Allocate the arrays at full capacity so every future reuse of this
	// node fits any degree up to b, binding every cell up to capacity —
	// reuse reslices into it and must find bound cells.
	b := h.t.cfg.B
	ck, cc := b-1, b
	if len(keys) > ck {
		ck = len(keys)
	}
	if len(children) > cc {
		cc = len(children)
	}
	n.keys = append(make([]uint64, 0, ck), keys...)
	// Aggregate cells: first allocation binds them (callers fill them via
	// initAggs/setAggsFromPairs before publication); recycled nodes keep
	// their bindings.
	n.aggSum.Bind(h.clk)
	n.aggCount.Bind(h.clk)
	n.aggMin.Bind(h.clk)
	n.aggMax.Bind(h.clk)
	full := make([]htm.Ref[Node], cc)
	for i := range full {
		full[i].Bind(h.clk)
	}
	n.children = full[:len(children)]
	for i, c := range children {
		n.children[i].Init(c)
	}
	return n
}

// beginAttempt, remove and settle delegate to the shared pool (see
// nodepool's attempt-lifecycle contract). beginAttempt also drops any
// deferred aggregate rebuilds a failed attempt left behind: the pool
// may hand those nodes back out, and a stale rebuild would clobber a
// node reused with new content.
func (h *Handle) beginAttempt() {
	h.pend = h.pend[:0]
	h.pool.BeginAttempt()
}
func (h *Handle) remove(n *Node)           { h.pool.Remove(n) }
func (h *Handle) settle(path htm.PathKind) { h.pool.Settle(path) }
