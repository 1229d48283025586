// Package nodepool implements the per-handle node-pooling discipline
// shared by the template data structures (paper Section 9): steady-state
// inserts draw nodes from per-thread free lists, and deletions feed the
// lists back through the engine's epoch-based reclamation.
//
// One Pool serves one handle (one goroutine); nothing here is locked.
// The pools are segregated by node kind — leaves and internal nodes —
// because the two kinds follow different recycling disciplines that the
// structures encode identically:
//
//   - Leaves may recycle immediately after fast-path removals
//     (engine.Thread.Retire with fastOK): every reuse-mutable leaf field
//     is a transactional cell, so a stale transactional reader aborts
//     rather than observe the recycled leaf.
//   - Internal nodes always wait out a grace period: their routing keys
//     are read with plain loads on the descent hot path (htm.Word.Peek
//     or plain arrays), which is only sound if no reader can ever
//     observe a reuse.
//
// Provenance rule: the pool remembers how each pooled node got there,
// and Take reports it, because that decides how the node's cells must
// be rebuilt. A node back from a grace period (Reclaimed) — or one that
// was never published — has no readers, so plain stores (Init, Hdr.Reset)
// rebuild it. A leaf recycled immediately by a fast-path removal (Stale)
// may still be held by transactions whose snapshot predates its removal,
// so it is rebuilt with version-advancing Recycle stores that make those
// readers abort. A stale leaf stays stale until it passes a grace
// period: an aborted attempt that draws it and hands it back unpublished
// returns it as stale, and the next draw recycles it again.
//
// Attempt lifecycle: a body draws nodes with Take (recording them in
// the attempt's allocation list) and marks the nodes it unlinks with
// Remove. Each attempt starts with BeginAttempt — nodes drawn by a
// failed previous attempt were never published, so they return straight
// to the pools — and a completed operation calls Settle: the committed
// attempt's nodes are published (forgotten) and its removals retire
// under the rules above.
package nodepool

import "htmtree/internal/htm"

// Stats counts a pool's activity. Exported by the structures as their
// handle ReclaimStats.
type Stats struct {
	// Fresh counts heap allocations; Reused counts pool hits.
	Fresh, Reused uint64
	// RetiredFast counts removals recycled immediately under the
	// Section 9 fast-path rule; RetiredGrace counts removals deferred a
	// grace period.
	RetiredFast, RetiredGrace uint64
	// Freed counts nodes that reached the pools (immediately or after
	// their grace period expired).
	Freed uint64
}

// Retirer hands removed nodes to epoch-based reclamation; implemented
// by engine.Thread.
type Retirer interface {
	// Retire schedules x for reuse after a grace period, or reports
	// immediate=true — leaving x with the caller, which may reuse it at
	// once — when the Section 9 fast-path rule allows it. fastOK asserts
	// every reuse-mutable field of x is a transactional cell.
	Retire(p htm.PathKind, fastOK bool, x any) (immediate bool)
}

// Provenance says how a node drawn by Take must be (re-)initialized.
type Provenance uint8

// Node provenances.
const (
	// Fresh: heap-allocated by the fresh callback, never used.
	Fresh Provenance = iota
	// Reclaimed: back from a grace period, or drawn and handed back
	// unpublished — no thread can hold it, so plain stores rebuild it.
	Reclaimed
	// Stale: a leaf recycled immediately after a fast-path removal that
	// has not passed a grace period since — stale transactional readers
	// may hold it, so it must be rebuilt with Recycle stores.
	Stale
)

// drawn is an allocation-list entry: a node drawn by the current
// attempt and whether it was stale when drawn (an unpublished stale
// node goes back to the stale list).
type drawn[N any] struct {
	n     *N
	stale bool
}

// Pool is the per-handle pooling state for node type N.
type Pool[N any] struct {
	// leaf and inner hold reclaimed nodes; stale holds leaves recycled
	// immediately (see Provenance).
	leaf, stale, inner []*N
	alloc              []drawn[N]
	removed            []*N
	stats              Stats

	isLeaf func(*N) bool
	fresh  func(leaf bool) *N
	ret    Retirer
}

// New creates a pool. isLeaf routes nodes between the free lists (and
// decides Settle's fastOK: only leaves may recycle immediately); fresh
// heap-allocates a node of the given kind with its cells bound to the
// owning TM's clock; ret is the handle's engine thread.
func New[N any](isLeaf func(*N) bool, fresh func(leaf bool) *N, ret Retirer) *Pool[N] {
	return &Pool[N]{isLeaf: isLeaf, fresh: fresh, ret: ret}
}

// Stats returns a snapshot of the pool counters.
func (p *Pool[N]) Stats() Stats { return p.stats }

// Size returns the number of nodes currently in the free lists
// (white-box tests).
func (p *Pool[N]) Size() int { return len(p.leaf) + len(p.stale) + len(p.inner) }

// putBack returns a node to the matching free list.
func (p *Pool[N]) putBack(n *N, stale bool) {
	switch {
	case stale:
		p.stale = append(p.stale, n)
	case p.isLeaf(n):
		p.leaf = append(p.leaf, n)
	default:
		p.inner = append(p.inner, n)
	}
}

// Release receives a node whose grace period expired and pools it as
// reclaimed; it is the handle's ebr free callback
// (engine.Thread.EnableReclaim).
func (p *Pool[N]) Release(x any) {
	p.putBack(x.(*N), false)
	p.stats.Freed++
}

// pop removes and returns the last node of a free list, or nil.
func pop[N any](list *[]*N) *N {
	k := len(*list)
	if k == 0 {
		return nil
	}
	n := (*list)[k-1]
	(*list)[k-1] = nil
	*list = (*list)[:k-1]
	return n
}

// Take draws a node of the given kind from its pool, falling back to
// the heap, and records it in the attempt's allocation list. The
// provenance tells the caller how to initialize the node's cells:
// plain stores for Fresh and Reclaimed nodes, Recycle stores for Stale
// leaves. Reclaimed leaves are preferred, as they are cheaper to
// rebuild.
func (p *Pool[N]) Take(leaf bool) (*N, Provenance) {
	prov := Reclaimed
	var n *N
	if leaf {
		if n = pop(&p.leaf); n == nil {
			if n = pop(&p.stale); n != nil {
				prov = Stale
			}
		}
	} else {
		n = pop(&p.inner)
	}
	if n != nil {
		p.stats.Reused++
	} else {
		n = p.fresh(leaf)
		p.stats.Fresh++
		prov = Fresh
	}
	p.alloc = append(p.alloc, drawn[N]{n: n, stale: prov == Stale})
	return n, prov
}

// BeginAttempt resets the per-attempt state: nodes drawn by a previous
// attempt of this operation were never published (the attempt aborted
// or its SCX failed), so they return to the pools with their
// provenance, and the previous attempt's removal list is discarded.
func (p *Pool[N]) BeginAttempt() {
	for i, d := range p.alloc {
		p.putBack(d.n, d.stale)
		p.alloc[i] = drawn[N]{}
	}
	p.alloc = p.alloc[:0]
	p.removed = p.removed[:0]
}

// Remove records that the current attempt unlinks n; if the attempt
// commits, Settle retires n.
func (p *Pool[N]) Remove(n *N) {
	p.removed = append(p.removed, n)
}

// Settle finishes a completed operation: the committed attempt's drawn
// nodes are published (forgotten) and its removed nodes retire — leaves
// immediately (back onto the stale list) when the completing path
// permits, everything else after a grace period.
func (p *Pool[N]) Settle(path htm.PathKind) {
	clear(p.alloc)
	p.alloc = p.alloc[:0]
	for i, n := range p.removed {
		if p.ret.Retire(path, p.isLeaf(n), n) {
			p.stale = append(p.stale, n)
			p.stats.RetiredFast++
			p.stats.Freed++
		} else {
			p.stats.RetiredGrace++
		}
		p.removed[i] = nil
	}
	p.removed = p.removed[:0]
}
