package main

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"htmtree"
)

// batchOps is how many operations the batching client enqueues before it
// flushes and waits (the Handle.Batch default size trigger is the same).
const batchOps = 64

// segment is one measured slice of the window. A traced run alternates
// traced and untraced segments so both see the same host drift.
type segment struct {
	dur    time.Duration
	traced bool
}

var errInjected = errors.New("perfbench: injected failure")

// client is one closed-loop client: it sends its next request only after
// the previous reply, as callers of the library do.
type client struct {
	w      workload
	role   role
	g      rng
	h      *htmtree.Handle
	ah     *htmtree.AsyncHandle
	rec    *recorder
	traced []bool // per phase
	every  uint64 // span sample, in ops (see spanEvery)
	inject string

	ops               []uint64 // completed ops per phase
	attempted, failed uint64
	sum, count        uint64 // tally of keys this client added (mod 2^64)
	lat               hist   // latencies in measured phases

	kvs  []htmtree.KV
	futs [batchOps]htmtree.PointFuture
	enq  [batchOps]int64
	bops [batchOps]op
}

func (c *client) loop(phase *atomic.Int32, stop int32) {
	for {
		p := phase.Load()
		if p >= stop {
			return
		}
		if c.role == roleBatch {
			c.group(p)
			continue
		}
		o := c.role.next(&c.g, c.w.keys)
		t0 := c.rec.now()
		ok := c.do(o)
		t1 := c.rec.now()
		c.attempted++
		if !ok {
			c.failed++
		}
		c.ops[p]++
		if p > 0 {
			c.lat.record(t1 - t0)
		}
		if c.traced[p] && c.ops[p]%c.every == 0 {
			c.rec.add(snHtmtree, opSpan(o.kind), 0, t0, t1)
		}
	}
}

func opSpan(k opKind) uint8 {
	return [...]uint8{snInsert, snDelete, snSearch, snRangeQuery, snRangeAgg}[k]
}

// tally accounts one point result and reports whether it is correct.
func (c *client) tally(o op, val uint64, found bool) bool {
	switch {
	case o.kind == opInsert && !found:
		c.sum += o.key
		c.count++
	case o.kind == opDelete && found:
		c.sum -= o.key
		c.count--
	}
	return pointOK(o.key, val, found)
}

// do runs one synchronous operation and checks its result.
func (c *client) do(o op) bool {
	switch o.kind {
	case opInsert:
		old, existed := c.h.Insert(o.key, valueOf(o.key))
		return c.tally(o, old, existed)
	case opDelete:
		old, existed := c.h.Delete(o.key)
		return c.tally(o, old, existed)
	case opSearch:
		v, found := c.h.Search(o.key)
		return c.tally(o, v, found)
	case opRange:
		c.kvs = c.h.RangeQuery(o.key, o.hi, c.kvs[:0])
		switch c.inject {
		case "rq-order":
			if len(c.kvs) >= 2 {
				c.kvs[0], c.kvs[1] = c.kvs[1], c.kvs[0]
			}
		case "rq-bounds":
			c.kvs = append(c.kvs, htmtree.KV{Key: o.hi, Val: valueOf(o.hi)})
		}
		return rangeOK(o.key, o.hi, c.kvs)
	default:
		a, err := c.h.RangeAgg(o.key, o.hi)
		switch c.inject {
		case "agg-err":
			err = errInjected
		case "agg-minmax":
			a.Count, a.Max = max(a.Count, 1), o.hi
		}
		return aggOK(o.key, o.hi, a, err)
	}
}

// group enqueues batchOps operations through the Handle.Batch context,
// flushes, and waits for every future. A point op's latency runs from
// its enqueue until its future is complete, which is when Flush returns.
func (c *client) group(p int32) {
	t0 := c.rec.now()
	for i := range c.bops {
		o := c.role.next(&c.g, c.w.keys)
		c.bops[i] = o
		c.enq[i] = c.rec.now()
		c.futs[i] = enqueue(c.ah, o)
	}
	tf := c.rec.now()
	c.ah.Flush()
	tw := c.rec.now()
	for i, o := range c.bops {
		v, found := c.futs[i].Wait()
		if !c.tally(o, v, found) {
			c.failed++
		}
	}
	t1 := c.rec.now()
	c.attempted += batchOps
	c.ops[p] += batchOps
	if p > 0 {
		for _, e := range c.enq {
			c.lat.record(tw - e)
		}
	}
	if c.traced[p] && c.ops[p]%c.every == 0 {
		g := c.rec.add(snBatch, snGroup, 0, t0, t1)
		c.rec.add(snBatch, snFlush, g, tf, tw)
		c.rec.add(snBatch, snWait, g, tw, t1)
	}
}

// enqueue sends one point op through an asynchronous handle.
func enqueue(ah *htmtree.AsyncHandle, o op) htmtree.PointFuture {
	switch o.kind {
	case opInsert:
		return ah.Insert(o.key, valueOf(o.key))
	case opDelete:
		return ah.Delete(o.key)
	default:
		return ah.Search(o.key)
	}
}

// windowResult is what the clients did in one window.
type windowResult struct {
	segSecs            []float64 // duration of each measured segment
	pointOps, queryOps []uint64  // completions per measured segment
	attempted, failed  uint64
	sum, count         uint64 // key tally over all clients
	point, query       latency
	before, after      htmtree.Stats
	mallocs            uint64
	recs               []*recorder
}

// runWindow drives both clients through warm-up and then the measured
// segments. Tree statistics and the allocation count are snapshotted at
// the segment boundaries, so warm-up (pool and epoch steady state) is
// outside every measured number.
func runWindow(t *htmtree.Tree, w workload, seed uint64, base time.Time, warm time.Duration,
	segs []segment, inject string) windowResult {
	stop := int32(len(segs) + 1)
	traced := make([]bool, stop+1)
	anyTraced := false
	for i, s := range segs {
		traced[i+1] = s.traced
		anyTraced = anyTraced || s.traced
	}
	var phase atomic.Int32
	cs := make([]*client, len(w.roles))
	for i, r := range w.roles {
		c := &client{w: w, role: r, g: newRNG(seed, w.name, i), h: t.NewHandle(), traced: traced,
			ops: make([]uint64, stop+1), rec: newRecorder(base, i, 0)}
		if anyTraced {
			c.rec = newRecorder(base, i, spanCap)
		}
		switch {
		case r == roleBatch:
			c.ah, c.every = c.h.Batch(), groupSpanEvery*batchOps
		case r.query():
			c.every = querySpanEvery
		default:
			c.every = spanEvery
		}
		if r.query() && i == 1 {
			c.inject = inject
		}
		cs[i] = c
	}
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.loop(&phase, stop)
		}()
	}
	res := windowResult{segSecs: make([]float64, len(segs)),
		pointOps: make([]uint64, len(segs)), queryOps: make([]uint64, len(segs))}
	time.Sleep(warm)
	var ms runtime.MemStats
	res.before = t.Stats()
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	for i, s := range segs {
		t0 := time.Now()
		phase.Store(int32(i + 1))
		time.Sleep(s.dur)
		res.segSecs[i] = time.Since(t0).Seconds()
	}
	phase.Store(stop)
	wg.Wait()
	runtime.ReadMemStats(&ms)
	res.mallocs = ms.Mallocs - m0
	res.after = t.Stats()
	var ph, qh hist
	for _, c := range cs {
		ops, h := res.pointOps, &ph
		if c.role.query() {
			ops, h = res.queryOps, &qh
		}
		for i := range segs {
			ops[i] += c.ops[i+1]
		}
		h.merge(&c.lat)
	}
	res.point, res.query = ph.summary(), qh.summary()
	if inject == "tally" {
		cs[0].sum++
	}
	for _, c := range cs {
		res.attempted += c.attempted
		res.failed += c.failed
		res.sum += c.sum
		res.count += c.count
		if anyTraced {
			res.recs = append(res.recs, c.rec)
		}
	}
	return res
}
