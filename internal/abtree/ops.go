package abtree

import (
	"fmt"

	"htmtree/internal/dict"
	"htmtree/internal/engine"
	"htmtree/internal/htm"
	"htmtree/internal/llxscx"
)

// buildOps constructs the per-handle engine ops once.
func (h *Handle) buildOps() {
	t := h.t
	// Helpable-fallback completion (engine/help.go): the terminal
	// attempt carries the result and whether the helped update left a
	// balance violation; the owner runs the fix loop itself after the
	// engine returns (Insert/Delete below). finish also discards the
	// owner's attempt state: when a helper completed the descriptor, the
	// owner's pool still holds its last aborted fast attempt's removals
	// — nodes still in the tree that the caller's settle would retire.
	finish := func(val uint64, found, needFix bool) {
		h.beginAttempt()
		h.resVal, h.resFound, h.needFix = val, found, needFix
	}
	// Locked (TLE) update and fix bodies run the fast-mode code with a
	// nil tx, mutating cells non-transactionally; the whole body takes
	// the aggVer bracket so its aggregate updates are atomic against
	// transactional readers and against a lagging helped-record
	// installer's fixup, which runs outside the TLE lock (agg.go).
	h.insertOp = engine.Op{
		Site:     engine.NewSite(),
		Fast:     func(tx *htm.Tx) { t.insertBody(&prims{t: t, h: h, tx: tx, m: modeFast}) },
		Middle:   func(tx *htm.Tx) { t.insertBody(&prims{t: t, h: h, tx: tx, m: modeMiddle}) },
		Fallback: func() bool { return t.insertBody(&prims{t: t, h: h, m: modeFallback}) },
		Locked: func() {
			t.aggAcquire()
			t.insertBody(&prims{t: t, h: h, m: modeFast})
			t.aggRelease()
		},
		SCXHTM: func(useHTM bool) bool {
			return t.insertBody(&prims{t: t, h: h, m: modeSCXHTM, useHTM: useHTM})
		},
		Helpable: &engine.HelpableOp{
			Kind:   engine.HelpInsert,
			Args:   func() (uint64, uint64) { return h.argKey, h.argVal },
			Finish: finish,
		},
		Update: true,
	}
	h.deleteOp = engine.Op{
		Site:     engine.NewSite(),
		Fast:     func(tx *htm.Tx) { t.deleteBody(&prims{t: t, h: h, tx: tx, m: modeFast}) },
		Middle:   func(tx *htm.Tx) { t.deleteBody(&prims{t: t, h: h, tx: tx, m: modeMiddle}) },
		Fallback: func() bool { return t.deleteBody(&prims{t: t, h: h, m: modeFallback}) },
		Locked: func() {
			t.aggAcquire()
			t.deleteBody(&prims{t: t, h: h, m: modeFast})
			t.aggRelease()
		},
		SCXHTM: func(useHTM bool) bool {
			return t.deleteBody(&prims{t: t, h: h, m: modeSCXHTM, useHTM: useHTM})
		},
		Helpable: &engine.HelpableOp{
			Kind:   engine.HelpDelete,
			Args:   func() (uint64, uint64) { return h.argKey, 0 },
			Finish: finish,
		},
		Update: true,
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
	// fixOp is deliberately not an Update: rebalancing steps restructure
	// nodes but never change the logical key/value content, so they need
	// not invalidate cross-shard snapshot validation.
	h.fixOp = engine.Op{
		Site:     engine.NewSite(),
		Fast:     func(tx *htm.Tx) { t.fixBody(&prims{t: t, h: h, tx: tx, m: modeFast}) },
		Middle:   func(tx *htm.Tx) { t.fixBody(&prims{t: t, h: h, tx: tx, m: modeMiddle}) },
		Fallback: func() bool { return t.fixBody(&prims{t: t, h: h, m: modeFallback}) },
		Locked: func() {
			t.aggAcquire()
			t.fixBody(&prims{t: t, h: h, m: modeFast})
			t.aggRelease()
		},
		SCXHTM: func(useHTM bool) bool {
			return t.fixBody(&prims{t: t, h: h, m: modeSCXHTM, useHTM: useHTM})
		},
	}
	// Aggregate range query (agg.go): the transactional paths descend via
	// the aggregate cells; paths without a transaction use the
	// LLX-validated leaf walk — under the TLE lock the walk still needs
	// LLX validation because a lagging helped-record installer can swing
	// a pointer outside the lock.
	h.aggOp = engine.Op{
		Site:     engine.NewSite(),
		Fast:     func(tx *htm.Tx) { t.aggInTx(tx, h) },
		Middle:   func(tx *htm.Tx) { t.aggInTx(tx, h) },
		Fallback: func() bool { return t.aggFallback(h) },
		Locked: func() {
			for !t.aggFallback(h) {
			}
		},
		SCXHTM: func(bool) bool { return t.aggFallback(h) },
	}
	// Pre-wrap the update ops' transactional bodies with the engine's
	// monitor bump (no-op without a monitor) so Run stays allocation-free.
	h.insertOp = h.e.PrepareOp(h.insertOp)
	h.deleteOp = h.e.PrepareOp(h.deleteOp)
}

// Insert associates key with val.
func (h *Handle) Insert(key, val uint64) (uint64, bool) {
	checkKey(key)
	h.argKey, h.argVal = key, val
	h.needFix = false
	h.settle(h.e.Run(h.insertOp))
	if h.needFix {
		h.runFixLoop()
	}
	return h.resVal, h.resFound
}

// Delete removes key.
func (h *Handle) Delete(key uint64) (uint64, bool) {
	checkKey(key)
	h.argKey = key
	h.needFix = false
	h.settle(h.e.Run(h.deleteOp))
	if h.needFix {
		h.runFixLoop()
	}
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
	h.argLo, h.argHi = lo, hi
	h.rqOut = h.rqOut[:0]
	h.e.Run(h.rqOp)
	return append(out, h.rqOut...)
}

func checkKey(key uint64) {
	if key > dict.MaxKey {
		panic(fmt.Sprintf("abtree: key %d exceeds dict.MaxKey", key))
	}
}

// searchLeaf descends to the leaf covering key. It returns the
// grandparent (nil above the root), parent, leaf, the index of the
// parent within the grandparent, and the index of the leaf within the
// parent. The entry sentinel acts as the root's parent.
func (t *Tree) searchLeaf(tx *htm.Tx, key uint64) (gp, p, u *Node, pIdx, uIdx int) {
	p = t.entry
	u = p.children[0].Get(tx)
	for !u.leaf {
		gp, pIdx = p, uIdx
		p = u
		uIdx = childIndex(p, key)
		u = p.children[uIdx].Get(tx)
	}
	return gp, p, u, pIdx, uIdx
}

// leafFind locates key within leaf u, returning its position (or the
// insertion point) and whether it is present.
func leafFind(tx *htm.Tx, u *Node, key uint64) (pos int, found bool) {
	sz := int(u.size.Get(tx))
	for i := 0; i < sz; i++ {
		k := u.lkeys[i].Get(tx)
		if k == key {
			return i, true
		}
		if k > key {
			return i, false
		}
	}
	return sz, false
}

// readLeaf reads leaf u's pairs into buf (reset first).
func readLeaf(tx *htm.Tx, u *Node, buf *[]kv) {
	*buf = (*buf)[:0]
	sz := int(u.size.Get(tx))
	for i := 0; i < sz; i++ {
		*buf = append(*buf, kv{k: u.lkeys[i].Get(tx), v: u.lvals[i].Get(tx)})
	}
}

// locateForUpdate runs the search phase for insert/delete, recording
// the internal nodes below the entry sentinel into h.path (the leaf's
// ancestors, root child first) for aggregate maintenance. The descent
// is subscribed: the recorded path receives aggregate deltas at
// commit, so the transaction must be invalidated if any node on it is
// replaced — exactly what subscription provides. Searches and range
// queries subscribe too; the (a,b)-tree does not implement the Section
// 8 out-of-band search (Config.SearchOutsideTx only turns off
// immediate recycling).
func (t *Tree) locateForUpdate(pr *prims, key uint64) (p, u *Node, uIdx int) {
	h := pr.h
	h.path = h.path[:0]
	p = t.entry
	u = p.children[0].Get(pr.tx)
	for !u.leaf {
		p = u
		h.path = append(h.path, p)
		uIdx = childIndex(p, key)
		u = p.children[uIdx].Get(pr.tx)
	}
	return p, u, uIdx
}

// insertBody implements Insert on every path. It returns false to
// request a retry (fallback modes); transactional modes abort instead.
func (t *Tree) insertBody(pr *prims) bool {
	h := pr.h
	h.beginAttempt()
	t.aggGuard(pr.tx)
	key, val := h.argKey, h.argVal
	b := t.cfg.B
	p, u, uIdx := t.locateForUpdate(pr, key)

	if pr.m == modeFast {
		tx := pr.tx
		pos, found := leafFind(tx, u, key)
		if found {
			// Update the value in place — the fast path's node-creation
			// saving (Section 6.2). Values don't feed the aggregates.
			h.resVal, h.resFound = u.lvals[pos].Get(tx), true
			h.needFix = false
			u.lvals[pos].Set(tx, val)
			return true
		}
		h.resVal, h.resFound = 0, false
		sz := int(u.size.Get(tx))
		if sz < b {
			for i := sz; i > pos; i-- {
				u.lkeys[i].Set(tx, u.lkeys[i-1].Get(tx))
				u.lvals[i].Set(tx, u.lvals[i-1].Get(tx))
			}
			u.lkeys[pos].Set(tx, key)
			u.lvals[pos].Set(tx, val)
			u.size.Set(tx, uint64(sz+1))
			u.aggSum.AddAtCommit(tx, key)
			aggApplyInsert(tx, h.path, key)
			h.needFix = false
			return true
		}
		// Full leaf: split, keeping u (rewritten in place) as the left
		// child — only a sibling and a parent are created (Section 6.2).
		readLeaf(tx, u, &h.buf)
		h.buf = insertAt(h.buf, pos, kv{k: key, v: val})
		lo := (len(h.buf) + 1) / 2
		right := h.newLeaf(h.buf[lo:])
		for i := 0; i < lo; i++ {
			u.lkeys[i].Set(tx, h.buf[i].k)
			u.lvals[i].Set(tx, h.buf[i].v)
		}
		u.size.Set(tx, uint64(lo))
		u.aggSum.Set(tx, sumPairs(h.buf[:lo]))
		h.kbuf = append(h.kbuf[:0], h.buf[lo].k)
		h.cbuf = append(h.cbuf[:0], u, right)
		np := h.newInternal(h.kbuf, h.cbuf, p != t.entry)
		setAggsFromPairs(np, h.buf)
		p.children[uIdx].Set(tx, np)
		aggApplyInsert(tx, h.path, key)
		h.needFix = np.tagged
		return true
	}

	// Template modes: replace the leaf (or grow a split subtree).
	var uCur *Node
	pi, _ := pr.llx(&p.hdr, func() { uCur = p.children[uIdx].Get(pr.tx) })
	if pr.failed {
		return false
	}
	if uCur != u {
		pr.fail()
		return false
	}
	ui, _ := pr.llx(&u.hdr, func() { readLeaf(pr.tx, u, &h.buf) })
	if pr.failed {
		return false
	}

	v := []*llxscx.Hdr{&p.hdr, &u.hdr}
	infos := []*llxscx.Info{pi, ui}
	r := []*llxscx.Hdr{&u.hdr}
	fld := &p.children[uIdx]

	pos, found := findInBuf(h.buf, key)
	if found {
		// Value update: the replacement leaf has the same key content, so
		// no aggregate changes anywhere.
		h.resVal, h.resFound = h.buf[pos].v, true
		h.needFix = false
		h.buf[pos].v = val
		if !pr.scx(v, infos, r, fld, u, h.newLeaf(h.buf)) {
			return false
		}
		h.remove(u)
		return true
	}
	h.resVal, h.resFound = 0, false
	h.buf = insertAt(h.buf, pos, kv{k: key, v: val})
	// Ancestor aggregates: the middle path rides the transaction (the
	// deltas commit with the swing); the non-transactional paths record
	// a fixup for the SCX bracket (prims.scx).
	if len(h.buf) <= b {
		h.needFix = false
		if pr.m == modeMiddle {
			aggApplyInsert(pr.tx, h.path, key)
		} else {
			pr.aggPlan(aggInsert, key)
		}
		if !pr.scx(v, infos, r, fld, u, h.newLeaf(h.buf)) {
			return false
		}
		h.remove(u)
		return true
	}
	// Full leaf: replace u with a tagged parent over two half leaves —
	// three new nodes on the template paths (Section 6.2).
	lo := (len(h.buf) + 1) / 2
	left := h.newLeaf(h.buf[:lo])
	right := h.newLeaf(h.buf[lo:])
	h.kbuf = append(h.kbuf[:0], h.buf[lo].k)
	h.cbuf = append(h.cbuf[:0], left, right)
	np := h.newInternal(h.kbuf, h.cbuf, p != t.entry)
	setAggsFromPairs(np, h.buf)
	h.needFix = np.tagged
	if pr.m == modeMiddle {
		aggApplyInsert(pr.tx, h.path, key)
	} else {
		// The SCX bracket's path fixup applies +key to every ancestor of
		// the new leaf — np, the replacement subtree root, included — so
		// np must be published with the pre-insert sum/count. Its min/max
		// may already include key: the fixup's conditional update is a
		// no-op when the cell already holds the key.
		np.aggSum.Init(sumPairs(h.buf) - key)
		np.aggCount.Init(uint64(len(h.buf) - 1))
		pr.aggPlan(aggInsert, key)
	}
	if !pr.scx(v, infos, r, fld, u, np) {
		return false
	}
	h.remove(u)
	return true
}

// deleteBody implements Delete on every path.
func (t *Tree) deleteBody(pr *prims) bool {
	h := pr.h
	h.beginAttempt()
	t.aggGuard(pr.tx)
	key := h.argKey
	a := t.cfg.A
	p, u, uIdx := t.locateForUpdate(pr, key)

	if pr.m == modeFast {
		tx := pr.tx
		pos, found := leafFind(tx, u, key)
		if !found {
			h.resVal, h.resFound = 0, false
			h.needFix = false
			return true
		}
		h.resVal, h.resFound = u.lvals[pos].Get(tx), true
		sz := int(u.size.Get(tx))
		// The leaf's post-delete min/max, read before the shift overwrites
		// the cells (the ancestor cascade must not read back cells this
		// transaction has written).
		cmin, cmax := aggEmptyMin, aggEmptyMax
		if sz > 1 {
			if pos == 0 {
				cmin = u.lkeys[1].Get(tx)
			} else {
				cmin = u.lkeys[0].Get(tx)
			}
			if pos == sz-1 {
				cmax = u.lkeys[sz-2].Get(tx)
			} else {
				cmax = u.lkeys[sz-1].Get(tx)
			}
		}
		for i := pos; i < sz-1; i++ {
			u.lkeys[i].Set(tx, u.lkeys[i+1].Get(tx))
			u.lvals[i].Set(tx, u.lvals[i+1].Get(tx))
		}
		u.size.Set(tx, uint64(sz-1))
		u.aggSum.AddAtCommit(tx, -key)
		aggApplyDelete(tx, h.path, u, key, cmin, cmax)
		h.needFix = p != t.entry && sz-1 < a
		return true
	}

	var uCur *Node
	pi, _ := pr.llx(&p.hdr, func() { uCur = p.children[uIdx].Get(pr.tx) })
	if pr.failed {
		return false
	}
	if uCur != u {
		pr.fail()
		return false
	}
	ui, _ := pr.llx(&u.hdr, func() { readLeaf(pr.tx, u, &h.buf) })
	if pr.failed {
		return false
	}
	pos, found := findInBuf(h.buf, key)
	if !found {
		h.resVal, h.resFound = 0, false
		h.needFix = false
		return true
	}
	h.resVal, h.resFound = h.buf[pos].v, true
	h.buf = append(h.buf[:pos], h.buf[pos+1:]...)
	h.needFix = p != t.entry && len(h.buf) < a
	if pr.m == modeMiddle {
		// The replacement leaf isn't linked yet, so the cascade's skip
		// pointer is u (still p's child at read time); its post-delete
		// min/max come from the buffer.
		cmin, cmax := aggEmptyMin, aggEmptyMax
		if len(h.buf) > 0 {
			cmin, cmax = h.buf[0].k, h.buf[len(h.buf)-1].k
		}
		aggApplyDelete(pr.tx, h.path, u, key, cmin, cmax)
	} else {
		pr.aggPlan(aggDelete, key)
	}
	if !pr.scx(
		[]*llxscx.Hdr{&p.hdr, &u.hdr}, []*llxscx.Info{pi, ui},
		[]*llxscx.Hdr{&u.hdr}, &p.children[uIdx], u, h.newLeaf(h.buf)) {
		return false
	}
	h.remove(u)
	return true
}

// searchBody implements Search (read-only on every path).
func (t *Tree) searchBody(tx *htm.Tx, h *Handle) {
	_, _, u, _, _ := t.searchLeaf(tx, h.argKey)
	pos, found := leafFind(tx, u, h.argKey)
	if found {
		h.resVal, h.resFound = u.lvals[pos].Get(tx), true
		return
	}
	h.resVal, h.resFound = 0, false
}

// findInBuf locates key in a sorted pair buffer.
func findInBuf(buf []kv, key uint64) (pos int, found bool) {
	for i, p := range buf {
		if p.k == key {
			return i, true
		}
		if p.k > key {
			return i, false
		}
	}
	return len(buf), false
}

// insertAt inserts p at position pos.
func insertAt(buf []kv, pos int, p kv) []kv {
	buf = append(buf, kv{})
	copy(buf[pos+1:], buf[pos:])
	buf[pos] = p
	return buf
}

// ---- range queries ----

// rqInTx collects [lo,hi) inside a transaction (fast/middle paths; TLE
// locked body when tx == nil).
func (t *Tree) rqInTx(tx *htm.Tx, h *Handle) {
	h.rqOut = h.rqOut[:0]
	t.rqWalk(tx, t.entry.children[0].Get(tx), h)
}

func (t *Tree) rqWalk(tx *htm.Tx, n *Node, h *Handle) {
	if n.leaf {
		rqCollectLeaf(tx, n, h)
		return
	}
	for i := range n.children {
		if rqChildOverlaps(n, i, h.argLo, h.argHi) {
			t.rqWalk(tx, n.children[i].Get(tx), h)
		}
	}
}

// rqChildOverlaps reports whether child i's routing range intersects
// [lo,hi).
func rqChildOverlaps(n *Node, i int, lo, hi uint64) bool {
	if i > 0 && n.keys[i-1] >= hi {
		return false
	}
	if i < len(n.keys) && n.keys[i] <= lo {
		return false
	}
	return true
}

func rqCollectLeaf(tx *htm.Tx, n *Node, h *Handle) {
	sz := int(n.size.Get(tx))
	for i := 0; i < sz; i++ {
		k := n.lkeys[i].Get(tx)
		if k >= h.argLo && k < h.argHi {
			h.rqOut = append(h.rqOut, dict.KV{Key: k, Val: n.lvals[i].Get(tx)})
		}
	}
}

// rqFallback collects the range with an LLX-validated DFS, restarting on
// any failed LLX.
func (t *Tree) rqFallback(h *Handle) bool {
	h.rqOut = h.rqOut[:0]
	var root *Node
	if _, st := llxscx.LLX(nil, &t.entry.hdr, func() {
		root = t.entry.children[0].Get(nil)
	}); st != llxscx.StatusOK {
		return false
	}
	return t.rqWalkLLX(root, h)
}

func (t *Tree) rqWalkLLX(n *Node, h *Handle) bool {
	if n.leaf {
		ok := true
		if _, st := llxscx.LLX(nil, &n.hdr, func() { rqCollectLeaf(nil, n, h) }); st != llxscx.StatusOK {
			ok = false
		}
		return ok
	}
	var snap []*Node
	if _, st := llxscx.LLX(nil, &n.hdr, func() {
		snap = make([]*Node, len(n.children))
		for i := range n.children {
			snap[i] = n.children[i].Get(nil)
		}
	}); st != llxscx.StatusOK {
		return false
	}
	for i, c := range snap {
		if rqChildOverlaps(n, i, h.argLo, h.argHi) {
			if !t.rqWalkLLX(c, h) {
				return false
			}
		}
	}
	return true
}
