package bst

import (
	"htmtree/internal/htm"
	"htmtree/internal/nodepool"
)

// Node pooling (paper Section 9): the shared discipline lives in
// internal/nodepool; this file wires it to the BST's node kinds. Leaves
// removed by fast-path commits recycle immediately — sound because the
// fast path excludes the fallback path, so every thread that can still
// hold a reference runs transactionally and aborts on the leaf's
// version-advancing Recycle stores (the leaf key is a cell for exactly
// this reason). Leaves back from a grace period have no readers and are
// rebuilt with plain stores. Internal nodes always wait out a grace
// period: their routing keys are read with plain loads on the descent
// hot path (htm.Word.Peek), which is only sound if no reader can ever
// observe a reuse.

// ReclaimStats counts a handle's node-pool activity. Exported for tests
// and diagnostics.
type ReclaimStats = nodepool.Stats

// ReclaimStats returns a snapshot of the handle's pool counters.
func (h *Handle) ReclaimStats() ReclaimStats { return h.pool.Stats() }

// PoolSize returns the number of nodes currently sitting in the
// handle's free lists (white-box tests).
func (h *Handle) PoolSize() int { return h.pool.Size() }

// freshNode heap-allocates a node of the given kind with its cells
// bound to the tree's clock (the pool's fresh callback).
func (h *Handle) freshNode(leaf bool) *Node {
	n := &Node{leaf: leaf}
	n.bind(h.clk)
	return n
}

// newLeaf builds a leaf holding key/val from the pool. A stale leaf
// (recycled immediately, see nodepool.Provenance) re-initializes its
// cells with version-advancing stores so stale transactional readers
// abort; reclaimed and fresh leaves use plain stores (no thread can
// hold them).
func (h *Handle) newLeaf(key, val uint64) *Node {
	n, prov := h.pool.Take(true)
	switch prov {
	case nodepool.Stale:
		n.hdr.Recycle()
		n.key.Recycle(key)
		n.val.Recycle(val)
		return n
	case nodepool.Reclaimed:
		n.hdr.Reset()
	}
	n.key.Init(key)
	n.val.Init(val)
	return n
}

// newInternal builds an internal node routing by key from the pool.
// Internal nodes only reach the pool through a grace period, so no
// thread can still hold them and plain (non-version-advancing) stores
// re-initialize them.
func (h *Handle) newInternal(key uint64, left, right *Node) *Node {
	n, prov := h.pool.Take(false)
	if prov == nodepool.Reclaimed {
		n.hdr.Reset()
	}
	n.key.Init(key)
	n.l.Init(left)
	n.r.Init(right)
	return n
}

// beginAttempt, remove and settle delegate to the shared pool (see
// nodepool's attempt-lifecycle contract).
func (h *Handle) beginAttempt()            { h.pool.BeginAttempt() }
func (h *Handle) remove(n *Node)           { h.pool.Remove(n) }
func (h *Handle) settle(path htm.PathKind) { h.pool.Settle(path) }
