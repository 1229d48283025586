package main

import (
	"runtime"
	"strings"

	"htmtree"
	"htmtree/internal/abtree"
	"htmtree/internal/bst"
	"htmtree/internal/dict"
	"htmtree/internal/engine"
	"htmtree/internal/htm"
	"htmtree/internal/shard"
)

// The ladder times calls into each layer of an operation's path, from a
// raw htm.Thread.Atomic up to the observed public Handle, on one client.
// Rungs run in paired rounds after a GC, in a freshly shuffled order each
// round (a fixed order would let one rung always inherit the caches its
// predecessor warmed), so host drift hits every rung of a round alike; a
// rung's self time is its per-round difference to the rung below it.
const (
	ladderWarmRounds = 2
	ladderRounds     = 21
	ladderPointCalls = 4096
	ladderQueryCalls = 64
)

type rung struct {
	name      string // metric prefix, "<layer>.<op>"
	layer, op uint8
	below     string // rung whose time the self time subtracts
	query     bool
	routed    bool // run needs each op's shard index in routes
	run       func(ops []op, routes []int) (failed uint64)
}

// pointHandle is the point-op surface shared by the public and internal
// handles.
type pointHandle interface {
	Insert(key, val uint64) (uint64, bool)
	Delete(key uint64) (uint64, bool)
	Search(key uint64) (uint64, bool)
}

func pointOp(h pointHandle, o op) bool {
	var v uint64
	var found bool
	switch o.kind {
	case opInsert:
		v, found = h.Insert(o.key, valueOf(o.key))
	case opDelete:
		v, found = h.Delete(o.key)
	default:
		v, found = h.Search(o.key)
	}
	return pointOK(o.key, v, found)
}

func runPoints(h pointHandle, ops []op) (failed uint64) {
	for _, o := range ops {
		if !pointOp(h, o) {
			failed++
		}
	}
	return failed
}

// ladderResult holds the rung metrics and the ops the ladder attempted.
type ladderResult struct {
	metrics           map[string]float64
	attempted, failed uint64
}

// newTwin builds the internal structure the tree and shard rungs time: a
// shard.Dict with the workload's shard count (one shard for an unsharded
// workload) over the internal trees the public constructors would build.
func newTwin(w workload) (*shard.Dict, error) {
	return shard.New(shard.Config{
		Shards:  max(1, w.shards),
		KeySpan: w.keys + 1,
		Atomic:  w.atomic,
		New: func(_ int, mon *engine.UpdateMonitor) dict.Dict {
			ecfg := engine.Config{Monitor: mon}
			if w.abtree {
				return abtree.New(abtree.Config{Engine: ecfg})
			}
			return bst.New(bst.Config{Engine: ecfg})
		},
	})
}

// runLadder times every rung. plain and observed are public trees of the
// workload without and with Observability; twin is from newTwin. All
// three are prefilled.
func runLadder(w workload, seed uint64, plain, observed *htmtree.Tree, twin *shard.Dict, rec *recorder) ladderResult {
	// htm and engine rungs: k transactional reads and one write, k the
	// workload's search depth.
	tm := htm.New(htm.Config{})
	words := make([]htm.Word, 1<<12)
	for i := range words {
		words[i].Bind(tm.Clock())
	}
	mask := uint64(len(words) - 1)
	var key uint64
	body := func(tx *htm.Tx) {
		var s uint64
		for j := 0; j < w.depth; j++ {
			s += words[(key+uint64(j)*0x9e37)&mask].Get(tx)
		}
		words[key&mask].Set(tx, s+1)
	}
	abortBody := func(tx *htm.Tx) {
		body(tx)
		tx.Abort(1)
	}
	th := tm.NewThread()
	eng := engine.New(engine.Config{Algorithm: engine.AlgThreePath}, tm.Clock())
	eth := eng.NewThread(tm.NewThread())
	eop := engine.Op{Fast: body, Middle: body, Fallback: func() bool { return true }}

	router := twin.Router()
	children := make([]dict.Handle, twin.NumShards())
	for i := range children {
		children[i] = twin.Shard(i).NewHandle()
	}
	sharded := twin.NewHandle()
	pub := plain.NewHandle()
	async := plain.NewHandle().Batch()
	futs := make([]htmtree.PointFuture, ladderPointCalls)
	obsH := observed.NewHandle()
	var kvs []dict.KV

	publicBelow := "tree.op"
	if w.shards > 0 {
		publicBelow = "shard.op"
	}
	rungs := []rung{
		{name: "htm.tx", layer: snHTM, op: snTx, run: func(ops []op, _ []int) (failed uint64) {
			for _, o := range ops {
				key = o.key
				if ok, _ := th.Atomic(htm.PathFast, body); !ok {
					failed++
				}
			}
			return failed
		}},
		{name: "htm.abort", layer: snHTM, op: snAbort, run: func(ops []op, _ []int) (failed uint64) {
			for _, o := range ops {
				key = o.key
				if ok, ab := th.Atomic(htm.PathFast, abortBody); ok || ab.Cause != htm.CauseExplicit {
					failed++
				}
			}
			return failed
		}},
		{name: "engine.run", layer: snEngine, op: snRun, below: "htm.tx", run: func(ops []op, _ []int) uint64 {
			for _, o := range ops {
				key = o.key
				eth.Run(eop)
			}
			return 0
		}},
		{name: "tree.op", layer: snTree, op: snOp, below: "engine.run", routed: true, run: func(ops []op, routes []int) (failed uint64) {
			for i, o := range ops {
				if !pointOp(children[routes[i]], o) {
					failed++
				}
			}
			return failed
		}},
		{name: "tree.rq", layer: snTree, op: snRQ, query: true, routed: true, run: func(ops []op, routes []int) (failed uint64) {
			for i, o := range ops {
				h := children[routes[i]]
				if o.kind == opRange {
					kvs = h.RangeQuery(o.key, o.hi, kvs[:0])
					if !rangeOK(o.key, o.hi, kvs) {
						failed++
					}
					continue
				}
				a, err := h.(dict.AggHandle).RangeAgg(o.key, o.hi)
				if !aggOK(o.key, o.hi, htmtree.Agg(a), err) {
					failed++
				}
			}
			return failed
		}},
		{name: "shard.op", layer: snShard, op: snOp, below: "tree.op", run: func(ops []op, _ []int) uint64 {
			return runPoints(sharded, ops)
		}},
		{name: "htmtree.op", layer: snHtmtree, op: snOp, below: publicBelow, run: func(ops []op, _ []int) uint64 {
			return runPoints(pub, ops)
		}},
		{name: "batch.op", layer: snBatch, op: snOp, below: "htmtree.op", run: func(ops []op, _ []int) (failed uint64) {
			for i, o := range ops {
				futs[i] = enqueue(async, o)
			}
			async.Flush()
			for i, o := range ops {
				if v, found := futs[i].Wait(); !pointOK(o.key, v, found) {
					failed++
				}
			}
			return failed
		}},
		{name: "obs.op", layer: snObs, op: snOp, below: "htmtree.op", run: func(ops []op, _ []int) uint64 {
			return runPoints(obsH, ops)
		}},
	}

	// Every rung draws its own block from the ladder streams, so rungs
	// sharing a structure never replay each other's keys.
	pg := newRNG(seed, w.name+"/ladder", int(w.pointRole()))
	qg := newRNG(seed, w.name+"/ladder", int(w.queryRole()))
	blocks := make([][]op, len(rungs))
	routes := make([][]int, len(rungs))
	for i, r := range rungs {
		n := ladderPointCalls
		if r.query {
			n = ladderQueryCalls
		}
		blocks[i] = make([]op, n)
		routes[i] = make([]int, n)
	}
	og := newRNG(seed, w.name+"/ladder-order", 0)
	order := make([]int, len(rungs))
	for i := range order {
		order[i] = i
	}
	perCall := make(map[string][]float64, len(rungs))
	var res ladderResult
	for round := 0; round < ladderWarmRounds+ladderRounds; round++ {
		for i, r := range rungs {
			g, role := &pg, w.pointRole()
			if r.query {
				g, role = &qg, w.queryRole()
			}
			for j := range blocks[i] {
				blocks[i][j] = role.next(g, w.keys)
				if r.routed {
					routes[i][j] = router.ShardFor(blocks[i][j].key)
				}
			}
		}
		for j := len(order) - 1; j > 0; j-- {
			k := int(og.below(uint64(j + 1)))
			order[j], order[k] = order[k], order[j]
		}
		runtime.GC()
		rs := rec.add(snLadder, snRound, 0, rec.now(), 0)
		for _, i := range order {
			r := rungs[i]
			t0 := rec.now()
			failed := r.run(blocks[i], routes[i])
			t1 := rec.now()
			res.attempted += uint64(len(blocks[i]))
			res.failed += failed
			rec.add(r.layer, r.op, rs, t0, t1)
			if round >= ladderWarmRounds {
				perCall[r.name] = append(perCall[r.name], float64(t1-t0)/float64(len(blocks[i])))
			}
		}
		rec.finish(rs, rec.now())
	}
	res.metrics = make(map[string]float64)
	for _, r := range rungs {
		xs := perCall[r.name]
		q1, med, q3 := quartiles(xs)
		res.metrics[r.name+"_ns"] = med
		res.metrics[r.name+"_ns.iqr"] = q3 - q1
		if r.below == "" {
			continue
		}
		ys := perCall[r.below]
		self := make([]float64, len(xs))
		for k := range xs {
			self[k] = xs[k] - ys[k]
		}
		q1, med, q3 = quartiles(self)
		layer := r.name[:strings.IndexByte(r.name, '.')]
		res.metrics[layer+".self_ns"] = med
		res.metrics[layer+".self_ns.iqr"] = q3 - q1
	}
	return res
}
