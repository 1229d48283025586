package bst

import (
	"fmt"

	"htmtree/internal/dict"
	"htmtree/internal/engine"
	"htmtree/internal/htm"
	"htmtree/internal/llxscx"
)

// buildOps constructs the per-handle engine ops once, wiring each
// algorithm's path bodies to the handle's scratch argument/result
// fields.
func (h *Handle) buildOps() {
	t := h.t
	// finish delivers a helped operation's result into the handle
	// scratch (shared by both update ops; the bst has no deferred fix).
	// It also discards the owner's attempt state: when a helper
	// completed the descriptor, the owner never ran a help body, so its
	// pool still holds its last aborted fast attempt's removals — nodes
	// that are still in the tree, which the caller's settle would
	// otherwise retire and reuse under live readers.
	finish := func(val uint64, found, _ bool) {
		h.beginAttempt()
		h.resVal, h.resFound = val, found
	}
	h.insertOp = engine.Op{
		Site:     engine.NewSite(),
		Fast:     func(tx *htm.Tx) { t.insertFast(tx, h) },
		Middle:   func(tx *htm.Tx) { t.insertMiddle(tx, h) },
		Fallback: func() bool { return t.insertTemplate(h, false) },
		Locked:   func() { t.insertFast(nil, h) },
		SCXHTM:   func(useHTM bool) bool { return t.insertTemplate(h, useHTM) },
		Update:   true,
		Helpable: &engine.HelpableOp{
			Kind:   engine.HelpInsert,
			Args:   func() (uint64, uint64) { return h.argKey, h.argVal },
			Finish: finish,
		},
	}
	h.deleteOp = engine.Op{
		Site:     engine.NewSite(),
		Fast:     func(tx *htm.Tx) { t.deleteFast(tx, h) },
		Middle:   func(tx *htm.Tx) { t.deleteMiddle(tx, h) },
		Fallback: func() bool { return t.deleteTemplate(h, false) },
		Locked:   func() { t.deleteFast(nil, h) },
		SCXHTM:   func(useHTM bool) bool { return t.deleteTemplate(h, useHTM) },
		Update:   true,
		Helpable: &engine.HelpableOp{
			Kind:   engine.HelpDelete,
			Args:   func() (uint64, uint64) { return h.argKey, 0 },
			Finish: finish,
		},
	}
	h.searchOp = engine.Op{
		Site:     engine.NewSite(),
		Fast:     func(tx *htm.Tx) { t.searchBody(tx, h) },
		Middle:   func(tx *htm.Tx) { t.searchBody(tx, h) },
		Fallback: func() bool { t.searchBody(nil, h); return true },
		Locked:   func() { t.searchBody(nil, h) },
		SCXHTM:   func(bool) bool { t.searchBody(nil, h); return true },
	}
	h.rqOp = engine.Op{
		Site:     engine.NewSite(),
		Fast:     func(tx *htm.Tx) { t.rqInTx(tx, h) },
		Middle:   func(tx *htm.Tx) { t.rqInTx(tx, h) },
		Fallback: func() bool { return t.rqFallback(h) },
		Locked:   func() { t.rqInTx(nil, h) },
		SCXHTM:   func(bool) bool { return t.rqFallback(h) },
	}
	// Pre-wrap the update ops' transactional bodies with the engine's
	// monitor bump (no-op without a monitor) so Run stays allocation-free.
	h.insertOp = h.e.PrepareOp(h.insertOp)
	h.deleteOp = h.e.PrepareOp(h.deleteOp)
}

// Insert associates key with val (paper Figures 12/13).
func (h *Handle) Insert(key, val uint64) (uint64, bool) {
	checkKey(key)
	h.argKey, h.argVal = key, val
	h.settle(h.e.Run(h.insertOp))
	return h.resVal, h.resFound
}

// Delete removes key.
func (h *Handle) Delete(key uint64) (uint64, bool) {
	checkKey(key)
	h.argKey = key
	h.settle(h.e.Run(h.deleteOp))
	return h.resVal, h.resFound
}

// Search looks up key.
func (h *Handle) Search(key uint64) (uint64, bool) {
	checkKey(key)
	h.argKey = key
	h.e.Run(h.searchOp)
	return h.resVal, h.resFound
}

// RangeQuery appends all pairs with lo <= key < hi to out in ascending
// key order.
func (h *Handle) RangeQuery(lo, hi uint64, out []dict.KV) []dict.KV {
	if hi > dict.MaxKey+1 {
		hi = dict.MaxKey + 1
	}
	h.argLo, h.argHi = lo, hi
	h.rqOut = h.rqOut[:0]
	h.e.Run(h.rqOp)
	return append(out, h.rqOut...)
}

// RangeAgg returns the aggregate tuple of the keys in [lo, hi) by
// walking the range — the BST deliberately keeps the O(range)
// implementation behind dict.AggHandle as the control for the
// walk-vs-aggregate ablation (the (a,b)-tree answers in O(log n) from
// maintained subtree aggregates). Steady-state queries reuse the
// retained range buffer, so they stay allocation-free.
func (h *Handle) RangeAgg(lo, hi uint64) (dict.Agg, error) {
	if hi > dict.MaxKey+1 {
		hi = dict.MaxKey + 1
	}
	h.argLo, h.argHi = lo, hi
	h.rqOut = h.rqOut[:0]
	h.e.Run(h.rqOp)
	agg := dict.Agg{Min: ^uint64(0), Max: 0}
	for _, p := range h.rqOut {
		agg.Sum += p.Key
		agg.Count++
		if p.Key < agg.Min {
			agg.Min = p.Key
		}
		if p.Key > agg.Max {
			agg.Max = p.Key
		}
	}
	return agg, nil
}

var _ dict.AggHandle = (*Handle)(nil)

func checkKey(key uint64) {
	if key > dict.MaxKey {
		panic(fmt.Sprintf("bst: key %d exceeds dict.MaxKey", key))
	}
}

// locate finds the operation point for the fast and middle paths. With
// SearchOutsideTx enabled (Section 8) the descent uses unsubscribed
// reads and the caller revalidates inside the transaction; otherwise the
// descent itself is transactional.
func (t *Tree) locate(tx *htm.Tx, key uint64) (gp, p, l *Node) {
	if t.cfg.SearchOutsideTx && tx != nil {
		return t.search(nil, key)
	}
	return t.search(tx, key)
}

// revalidate confirms, inside the transaction, that an out-of-band
// search result is still current: every node is unmarked and the links
// still hold (Section 8: abort as soon as a marked node is seen).
func revalidate(tx *htm.Tx, key uint64, gp, p, l *Node) {
	if gp != nil {
		if gp.hdr.Marked(tx) || childRef(gp, key).Get(tx) != p {
			tx.Abort(engine.CodeRetry)
		}
	}
	if p.hdr.Marked(tx) || childRef(p, key).Get(tx) != l || l.hdr.Marked(tx) {
		tx.Abort(engine.CodeRetry)
	}
}

// ---- fast path (sequential code of Figure 13; also the TLE locked body
// when tx == nil) ----

func (t *Tree) insertFast(tx *htm.Tx, h *Handle) {
	h.beginAttempt()
	key, val := h.argKey, h.argVal
	gp, p, l := t.locate(tx, key)
	if t.cfg.SearchOutsideTx && tx != nil {
		revalidate(tx, key, gp, p, l)
	}
	lk := l.key.GetStable(tx)
	if lk == key {
		// Directly update the value in place: the big fast-path win the
		// paper describes (no node creation).
		h.resVal, h.resFound = l.val.Get(tx), true
		l.val.Set(tx, val)
		return
	}
	h.resVal, h.resFound = 0, false
	nl := h.newLeaf(key, val)
	var ni *Node
	if key < lk {
		ni = h.newInternal(lk, nl, l)
	} else {
		ni = h.newInternal(key, l, nl)
	}
	childRef(p, key).Set(tx, ni)
}

func (t *Tree) deleteFast(tx *htm.Tx, h *Handle) {
	h.beginAttempt()
	key := h.argKey
	gp, p, l := t.locate(tx, key)
	if t.cfg.SearchOutsideTx && tx != nil {
		revalidate(tx, key, gp, p, l)
	}
	if l.key.GetStable(tx) != key {
		h.resVal, h.resFound = 0, false
		return
	}
	h.resVal, h.resFound = l.val.Get(tx), true
	if gp == nil {
		// l hangs directly off the root: restore the empty-tree sentinel.
		t.root.l.Set(tx, h.newLeaf(keyInf1, 0))
		l.hdr.SetMarked(tx)
		h.remove(l)
		return
	}
	// Reuse the sibling directly instead of copying it (Figure 13).
	var s *Node
	if key < p.key.Peek() {
		s = p.r.Get(tx)
	} else {
		s = p.l.Get(tx)
	}
	childRef(gp, key).Set(tx, s)
	p.hdr.SetMarked(tx)
	l.hdr.SetMarked(tx)
	h.remove(p)
	h.remove(l)
}

func (t *Tree) searchBody(tx *htm.Tx, h *Handle) {
	_, _, l := t.search(tx, h.argKey)
	if l.key.GetStable(tx) == h.argKey {
		h.resVal, h.resFound = l.val.Get(tx), true
		return
	}
	h.resVal, h.resFound = 0, false
}

// ---- middle path (template code of Figure 12 inside one transaction,
// with transactional LLX and SCXInTx; Section 5) ----

func (t *Tree) insertMiddle(tx *htm.Tx, h *Handle) {
	h.beginAttempt()
	key, val := h.argKey, h.argVal
	_, p, _ := t.locate(tx, key)
	var pl, pr *Node
	if _, st := llxscx.LLX(tx, &p.hdr, func() {
		pl = p.l.Get(tx)
		pr = p.r.Get(tx)
	}); st != llxscx.StatusOK {
		tx.Abort(engine.CodeRetry)
	}
	l := pl
	if key >= p.key.Peek() {
		l = pr
	}
	if !l.leaf {
		// Only possible with an out-of-band search: p moved. Retry.
		tx.Abort(engine.CodeRetry)
	}
	if _, st := llxscx.LLX(tx, &l.hdr, nil); st != llxscx.StatusOK {
		tx.Abort(engine.CodeRetry)
	}
	lk := l.key.GetStable(tx)
	if lk == key {
		// Replace the leaf by a new copy holding the new value: the
		// template may not modify immutable fields in place.
		h.resVal, h.resFound = l.val.Get(tx), true
		nl := h.newLeaf(key, val)
		llxscx.SCXInTx(tx, &h.e.Tags,
			[]*llxscx.Hdr{&p.hdr, &l.hdr}, []*llxscx.Hdr{&l.hdr})
		childRef(p, key).Set(tx, nl)
		h.remove(l)
		return
	}
	h.resVal, h.resFound = 0, false
	nl := h.newLeaf(key, val)
	var ni *Node
	if key < lk {
		ni = h.newInternal(lk, nl, l)
	} else {
		ni = h.newInternal(key, l, nl)
	}
	llxscx.SCXInTx(tx, &h.e.Tags,
		[]*llxscx.Hdr{&p.hdr, &l.hdr}, nil)
	childRef(p, key).Set(tx, ni)
}

func (t *Tree) deleteMiddle(tx *htm.Tx, h *Handle) {
	h.beginAttempt()
	key := h.argKey
	gp, p, l := t.locate(tx, key)
	if l.key.GetStable(tx) != key {
		h.resVal, h.resFound = 0, false
		return
	}
	if gp == nil {
		// l hangs off the root: replace it with a fresh sentinel leaf.
		var rl *Node
		if _, st := llxscx.LLX(tx, &t.root.hdr, func() {
			rl = t.root.l.Get(tx)
		}); st != llxscx.StatusOK {
			tx.Abort(engine.CodeRetry)
		}
		if !rl.leaf {
			tx.Abort(engine.CodeRetry) // tree grew meanwhile; retry
		}
		if rl.key.GetStable(tx) != key {
			h.resVal, h.resFound = 0, false
			return
		}
		if _, st := llxscx.LLX(tx, &rl.hdr, nil); st != llxscx.StatusOK {
			tx.Abort(engine.CodeRetry)
		}
		h.resVal, h.resFound = rl.val.Get(tx), true
		llxscx.SCXInTx(tx, &h.e.Tags,
			[]*llxscx.Hdr{&t.root.hdr, &rl.hdr}, []*llxscx.Hdr{&rl.hdr})
		t.root.l.Set(tx, h.newLeaf(keyInf1, 0))
		h.remove(rl)
		return
	}

	var gl, gr *Node
	if _, st := llxscx.LLX(tx, &gp.hdr, func() {
		gl = gp.l.Get(tx)
		gr = gp.r.Get(tx)
	}); st != llxscx.StatusOK {
		tx.Abort(engine.CodeRetry)
	}
	p2 := gl
	if key >= gp.key.Peek() {
		p2 = gr
	}
	if p2 != p {
		tx.Abort(engine.CodeRetry)
	}
	var pl, pr *Node
	if _, st := llxscx.LLX(tx, &p.hdr, func() {
		pl = p.l.Get(tx)
		pr = p.r.Get(tx)
	}); st != llxscx.StatusOK {
		tx.Abort(engine.CodeRetry)
	}
	l2, s := pl, pr
	if key >= p.key.Peek() {
		l2, s = pr, pl
	}
	if l2 != l {
		tx.Abort(engine.CodeRetry)
	}
	if _, st := llxscx.LLX(tx, &l.hdr, nil); st != llxscx.StatusOK {
		tx.Abort(engine.CodeRetry)
	}
	var sl, sr *Node
	if _, st := llxscx.LLX(tx, &s.hdr, func() {
		if !s.leaf {
			sl = s.l.Get(tx)
			sr = s.r.Get(tx)
		}
	}); st != llxscx.StatusOK {
		tx.Abort(engine.CodeRetry)
	}
	h.resVal, h.resFound = l.val.Get(tx), true
	// Replace p and l with a copy of the sibling (Figure 12).
	var ns *Node
	if s.leaf {
		ns = h.newLeaf(s.key.GetStable(tx), s.val.Get(tx))
	} else {
		ns = h.newInternal(s.key.Peek(), sl, sr)
	}
	llxscx.SCXInTx(tx, &h.e.Tags,
		[]*llxscx.Hdr{&gp.hdr, &p.hdr, &l.hdr, &s.hdr},
		[]*llxscx.Hdr{&p.hdr, &l.hdr, &s.hdr})
	childRef(gp, key).Set(tx, ns)
	h.remove(p)
	h.remove(l)
	h.remove(s)
}

// ---- fallback path (original template with LLXO/SCXO, Figure 12) and
// the Section 4 standalone-HTM-SCX variant (useHTM == true) ----

// insertTemplate returns false to request a retry.
func (t *Tree) insertTemplate(h *Handle, useHTM bool) bool {
	h.beginAttempt()
	key, val := h.argKey, h.argVal
	_, p, _ := t.search(nil, key)
	var pl, pr *Node
	pi, st := llxscx.LLX(nil, &p.hdr, func() {
		pl = p.l.Get(nil)
		pr = p.r.Get(nil)
	})
	if st != llxscx.StatusOK {
		return false
	}
	l := pl
	if key >= p.key.Peek() {
		l = pr
	}
	if !l.leaf {
		return false // the tree changed under us; re-search
	}
	li, st := llxscx.LLX(nil, &l.hdr, nil)
	if st != llxscx.StatusOK {
		return false
	}

	v := []*llxscx.Hdr{&p.hdr, &l.hdr}
	infos := []*llxscx.Info{pi, li}
	fld := childRef(p, key)

	lk := l.key.Peek()
	if lk == key {
		h.resVal, h.resFound = l.val.Get(nil), true
		nl := h.newLeaf(key, val)
		if !t.runSCX(h, useHTM, v, infos, []*llxscx.Hdr{&l.hdr}, fld, l, nl) {
			return false
		}
		h.remove(l)
		return true
	}
	h.resVal, h.resFound = 0, false
	nl := h.newLeaf(key, val)
	var ni *Node
	if key < lk {
		ni = h.newInternal(lk, nl, l)
	} else {
		ni = h.newInternal(key, l, nl)
	}
	return t.runSCX(h, useHTM, v, infos, nil, fld, l, ni)
}

func (t *Tree) deleteTemplate(h *Handle, useHTM bool) bool {
	h.beginAttempt()
	key := h.argKey
	gp, p, l := t.search(nil, key)
	if l.key.Peek() != key {
		h.resVal, h.resFound = 0, false
		return true
	}
	if gp == nil {
		// l hangs off the root: replace with a fresh sentinel leaf.
		var rl *Node
		ri, st := llxscx.LLX(nil, &t.root.hdr, func() { rl = t.root.l.Get(nil) })
		if st != llxscx.StatusOK {
			return false
		}
		if !rl.leaf {
			return false
		}
		if rl.key.Peek() != key {
			h.resVal, h.resFound = 0, false
			return true
		}
		li, st := llxscx.LLX(nil, &rl.hdr, nil)
		if st != llxscx.StatusOK {
			return false
		}
		h.resVal, h.resFound = rl.val.Get(nil), true
		if !t.runSCX(h, useHTM,
			[]*llxscx.Hdr{&t.root.hdr, &rl.hdr}, []*llxscx.Info{ri, li},
			[]*llxscx.Hdr{&rl.hdr}, &t.root.l, rl, h.newLeaf(keyInf1, 0)) {
			return false
		}
		h.remove(rl)
		return true
	}

	var gl, gr *Node
	gi, st := llxscx.LLX(nil, &gp.hdr, func() {
		gl = gp.l.Get(nil)
		gr = gp.r.Get(nil)
	})
	if st != llxscx.StatusOK {
		return false
	}
	p2 := gl
	if key >= gp.key.Peek() {
		p2 = gr
	}
	if p2 != p {
		return false
	}
	var pl, pr *Node
	pi, st := llxscx.LLX(nil, &p.hdr, func() {
		pl = p.l.Get(nil)
		pr = p.r.Get(nil)
	})
	if st != llxscx.StatusOK {
		return false
	}
	l2, s := pl, pr
	if key >= p.key.Peek() {
		l2, s = pr, pl
	}
	if l2 != l {
		return false
	}
	li, st := llxscx.LLX(nil, &l.hdr, nil)
	if st != llxscx.StatusOK {
		return false
	}
	var sl, sr *Node
	si, st := llxscx.LLX(nil, &s.hdr, func() {
		if !s.leaf {
			sl = s.l.Get(nil)
			sr = s.r.Get(nil)
		}
	})
	if st != llxscx.StatusOK {
		return false
	}
	h.resVal, h.resFound = l.val.Get(nil), true
	var ns *Node
	if s.leaf {
		ns = h.newLeaf(s.key.Peek(), s.val.Get(nil))
	} else {
		ns = h.newInternal(s.key.Peek(), sl, sr)
	}
	if !t.runSCX(h, useHTM,
		[]*llxscx.Hdr{&gp.hdr, &p.hdr, &l.hdr, &s.hdr},
		[]*llxscx.Info{gi, pi, li, si},
		[]*llxscx.Hdr{&p.hdr, &l.hdr, &s.hdr},
		childRef(gp, key), p, ns) {
		return false
	}
	h.remove(p)
	h.remove(l)
	h.remove(s)
	return true
}

// runSCX dispatches the update phase to SCXO or the standalone HTM SCX.
func (t *Tree) runSCX(h *Handle, useHTM bool,
	v []*llxscx.Hdr, infos []*llxscx.Info, r []*llxscx.Hdr,
	fld *htm.Ref[Node], old, new *Node) bool {
	if useHTM {
		ok, _ := llxscx.SCXHTM(h.e.H, htm.PathFast, &h.e.Tags, v, infos, r, fld, new)
		return ok
	}
	return llxscx.SCXO(v, infos, r, fld, old, new)
}

// ---- range queries ----

// rqInTx collects the range inside a transaction (fast and middle
// paths; also the TLE locked body with tx == nil). A range too large for
// the transactional read capacity aborts and the engine redirects the
// operation toward the fallback path — the dynamic that defines the
// paper's heavy workloads.
func (t *Tree) rqInTx(tx *htm.Tx, h *Handle) {
	h.rqOut = h.rqOut[:0]
	t.rqWalkTx(tx, t.root.l.Get(tx), h)
}

func (t *Tree) rqWalkTx(tx *htm.Tx, n *Node, h *Handle) {
	if n.leaf {
		if k := n.key.GetStable(tx); k >= h.argLo && k < h.argHi && k < keyInf1 {
			h.rqOut = append(h.rqOut, dict.KV{Key: k, Val: n.val.Get(tx)})
		}
		return
	}
	k := n.key.Peek() // internal: grace-protected
	if h.argLo < k {
		t.rqWalkTx(tx, n.l.Get(tx), h)
	}
	if h.argHi > k {
		t.rqWalkTx(tx, n.r.Get(tx), h)
	}
}

// rqFallback collects the range with an LLX-validated DFS, restarting
// when a concurrent SCX invalidates a node (returns false so the engine
// retries).
func (t *Tree) rqFallback(h *Handle) bool {
	h.rqOut = h.rqOut[:0]
	var root *Node
	if _, st := llxscx.LLX(nil, &t.root.hdr, func() {
		root = t.root.l.Get(nil)
	}); st != llxscx.StatusOK {
		return false
	}
	return t.rqWalkLLX(root, h)
}

func (t *Tree) rqWalkLLX(n *Node, h *Handle) bool {
	if n.leaf {
		// Fallback path: the presence indicator excludes immediate
		// recycling while this walk runs, so a plain peek is sound.
		if k := n.key.Peek(); k >= h.argLo && k < h.argHi && k < keyInf1 {
			h.rqOut = append(h.rqOut, dict.KV{Key: k, Val: n.val.Get(nil)})
		}
		return true
	}
	var nl, nr *Node
	if _, st := llxscx.LLX(nil, &n.hdr, func() {
		nl = n.l.Get(nil)
		nr = n.r.Get(nil)
	}); st != llxscx.StatusOK {
		return false
	}
	k := n.key.Peek()
	if h.argLo < k && !t.rqWalkLLX(nl, h) {
		return false
	}
	if h.argHi > k && !t.rqWalkLLX(nr, h) {
		return false
	}
	return true
}
