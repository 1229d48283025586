// Package workload implements the microbenchmark methodology of Section
// 7.1 of Brown's paper: prefilled trees, light workloads (n update
// threads doing 50% inserts / 50% deletes on uniform keys) and heavy
// workloads (n-1 update threads plus one thread performing range queries
// whose lengths follow the ⌊x²·S⌋+1 distribution), timed trials
// measuring completed operations per second, and per-thread key-sum
// checksums validating every trial. An analytics workload (beyond the
// paper) swaps the heavy workload's range-query thread for one issuing
// aggregate queries over maintained subtree aggregates.
package workload

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"htmtree/internal/batch"
	"htmtree/internal/dict"
	"htmtree/internal/engine"
	"htmtree/internal/fault"
	"htmtree/internal/hist"
	"htmtree/internal/htm"
	"htmtree/internal/shard"
	"htmtree/internal/xrand"
)

// Kind selects the workload of Section 7.1.
type Kind uint8

// Workloads.
const (
	Light Kind = iota + 1 // n update threads
	Heavy                 // n-1 update threads + 1 range-query thread
	// Analytics is Heavy with the query thread issuing aggregate
	// queries (dict.AggHandle.RangeAgg) instead of range queries, over
	// the same ⌊x²·S⌋+1 length distribution: the PR 8 analytics mix.
	// The dictionary must implement aggregate queries (on a sharded
	// dictionary that additionally requires Atomic); a spec that does
	// not is a driver bug and panics.
	Analytics
)

// String returns the paper's name for the workload.
func (k Kind) String() string {
	switch k {
	case Light:
		return "light"
	case Heavy:
		return "heavy"
	case Analytics:
		return "analytics"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// StatsProvider is implemented by data structures that expose their
// engine and HTM statistics (used for the Figure 16 and Section 7.2
// tables).
type StatsProvider interface {
	OpStats() engine.OpStats
	HTMStats() htm.Stats
}

// Config describes one trial.
type Config struct {
	// Threads is the total number of worker threads n.
	Threads int
	// Duration is the measurement window (paper: one second per trial).
	Duration time.Duration
	// KeyRange is K: updates draw keys uniformly from [1, K].
	KeyRange uint64
	// RQSizeMax is S: range-query lengths are ⌊x²·S⌋+1 for uniform x.
	RQSizeMax uint64
	// Kind selects light or heavy.
	Kind Kind
	// Seed makes trials deterministic.
	Seed uint64
	// SkipPrefill leaves the structure empty at trial start.
	SkipPrefill bool

	// Dist selects the update threads' key distribution (default
	// DistUniform, the paper's methodology). DistZipf and DistHotRange
	// model skewed traffic that collapses a range-routed sharded tree
	// onto one shard.
	Dist KeyDist
	// ZipfTheta is the Zipf parameter in (0, 1) for DistZipf (default
	// 0.99, the YCSB convention; larger is more skewed).
	ZipfTheta float64
	// HotOpFrac and HotKeyFrac parameterize DistHotRange: HotOpFrac of
	// the operations target the lowest HotKeyFrac slice of the key range
	// (defaults DefaultHotOpFrac and DefaultHotKeyFrac).
	HotOpFrac, HotKeyFrac float64
	// PinUpdaters pins each update thread to one home shard: thread i
	// draws its keys from shard (i mod NumShards)'s key bounds, so
	// updaters never contend across shard boundaries — the
	// conflict-domain win sharding exists for, made explicit. Requires a
	// dictionary exposing NumShards/Bounds with contiguous per-shard
	// bounds (a range-routed shard.Dict); otherwise threads fall back to
	// the full key range.
	PinUpdaters bool
	// BatchOps switches update threads to the asynchronous batched
	// path: each thread enqueues its inserts/deletes into a batch
	// pipeline flushed every BatchOps operations, settling the futures
	// (and the key-sum accounting) after each flush. 0 or 1 keeps the
	// paper's per-operation dispatch. Range-query threads are never
	// batched.
	BatchOps int
	// MeasureLatency captures per-operation latency into per-thread
	// histograms (internal/hist; zero-allocation on the operation path),
	// merged into Result.Latency / Result.RQLatency after the trial.
	// Tail quantiles are the point of the oversubscription experiments:
	// throughput barely distinguishes a convoying fallback lock from a
	// helpable one, but p99.9 does. Ignored by batched updaters, whose
	// per-operation enqueue time is not an operation latency.
	MeasureLatency bool
	// YieldEvery makes each worker yield the processor (runtime.Gosched)
	// between operations, every N completed operations; 0 never yields.
	// Oversubscribed latency trials set 1: a worker that runs operations
	// back to back keeps the processor for its full scheduling quantum
	// and is then preempted mid-operation, charging a multi-quantum
	// run-queue wait to whichever operation was in flight — a
	// procs-bound noise population that lands at the p999 rank in every
	// variant and masks the effect under test. Yielding between
	// operations moves that wait between timed windows.
	YieldEvery int
	// Liveness, when non-nil, receives one OpDone per completed
	// operation from every worker. Chaos trials watch it to prove
	// system-wide progress continues while an injected fault stalls or
	// kills an announced fallback owner.
	Liveness *fault.Liveness
	// Faults, when non-nil, arms fault injection in the batching
	// pipeline each batched updater builds (PointBatchFlush). Faults in
	// the dictionary itself are armed at construction via Spec.Faults.
	Faults *fault.Plan
}

// ShardInfo is implemented by sharded dictionaries that expose their
// partition layout (shard.Dict). PinUpdaters uses it to give each
// updater a home shard.
type ShardInfo interface {
	NumShards() int
	Bounds(i int) (lo, hi uint64)
}

// Result reports one trial.
type Result struct {
	// Ops is the number of operations completed in the window.
	Ops uint64
	// UpdateOps, RQOps and AggOps split Ops by operation class
	// (AggOps counts the Analytics workload's aggregate queries).
	UpdateOps, RQOps, AggOps uint64
	// Throughput is Ops per second.
	Throughput float64
	// PathStats counts operation completions per execution path over the
	// whole run (including prefill).
	PathStats engine.OpStats
	// HTMStats counts transaction commits/aborts per path and cause.
	HTMStats htm.Stats
	// KeySumOK reports whether the Section 7.1 checksum validated.
	KeySumOK bool
	// FinalSize is the number of keys at the end of the trial.
	FinalSize uint64
	// Rebalance reports live shard-rebalancing activity (zero unless
	// the dictionary is a shard.Dict with rebalancing enabled).
	Rebalance shard.RebalanceStats
	// Batch reports group-execution activity (zero unless the
	// dictionary is a shard.Dict and Config.BatchOps batched the
	// updaters).
	Batch shard.BatchStats
	// Latency and RQLatency are the merged per-operation latency
	// histograms of the update and range-query threads (nanoseconds;
	// nil unless Config.MeasureLatency).
	Latency, RQLatency *hist.Hist
	// MaxShardShare is the fraction of the trial's per-shard engine
	// operations served by the busiest shard (prefill excluded): 1/N is
	// perfectly balanced, 1.0 is total collapse onto one shard. Zero
	// when the dictionary is not sharded. This is the router-quality
	// metric: a skewed key distribution drives it toward 1 under static
	// range routing, while hash and adaptive routing hold it near 1/N —
	// on multi-core hosts the difference is exactly the serialized
	// fraction of the conflict domain.
	MaxShardShare float64
}

// shardOpTotals returns each shard's cumulative engine operation count.
func shardOpTotals(sd *shard.Dict) []uint64 {
	tot := make([]uint64, sd.NumShards())
	for i := range tot {
		if sp, ok := sd.Shard(i).(StatsProvider); ok {
			tot[i] = sp.OpStats().Total()
		}
	}
	return tot
}

// delta accumulates one worker thread's contribution to a trial. The
// embedded histograms are recorded by the owning thread only and merged
// after every worker stopped (they also pad deltas apart, so the hot
// counters of adjacent threads no longer share cache lines).
type delta struct {
	ops, updates, rqs, aggs uint64
	sum                     int64
	count                   int64
	lat                     hist.Hist
}

// runBatchedUpdater is an update thread's loop when Config.BatchOps
// batches operations: inserts and deletes enqueue into a pipeline over
// the thread's handle and settle — futures waited, key-sum deltas
// booked — every BatchOps operations. The pipeline flushes by size
// (the explicit Flush only drains the final partial batch), so the
// measured path is sorted group execution through dict.GroupExecutor
// when the dictionary supports it.
func runBatchedUpdater(h dict.Handle, cfg Config, rng *xrand.State, gen func(*xrand.State) uint64, st *delta, stop *atomic.Bool) {
	pl := batch.New(h, batch.Config{MaxOps: cfg.BatchOps, Faults: cfg.Faults})
	type rec struct {
		k   uint64
		ins bool
		pr  batch.PointPromise
	}
	recs := make([]rec, 0, cfg.BatchOps)
	settle := func() {
		pl.Flush()
		for _, rc := range recs {
			res := rc.pr.Wait()
			if rc.ins && !res.OK {
				st.sum += int64(rc.k)
				st.count++
			}
			if !rc.ins && res.OK {
				st.sum -= int64(rc.k)
				st.count--
			}
		}
		recs = recs[:0]
	}
	for !stop.Load() {
		k := gen(rng)
		if rng.Next()&1 == 0 {
			recs = append(recs, rec{k, true, pl.Insert(k, k)})
		} else {
			recs = append(recs, rec{k, false, pl.Delete(k)})
		}
		st.updates++
		st.ops++
		cfg.Liveness.OpDone()
		if len(recs) >= cfg.BatchOps {
			settle()
		}
	}
	settle()
}

// Prefill inserts each key of [1, KeyRange] independently with
// probability 1/2 — the stationary distribution of the paper's 50/50
// update prefill — in a shuffled order (sorted insertion would build a
// degenerate, path-shaped BST; the paper's random-key prefill yields
// logarithmic depth with high probability). It returns the sum and
// count of inserted keys.
func Prefill(d dict.Dict, cfg Config) (sum, count uint64) {
	workers := cfg.Threads
	if workers < 1 {
		workers = 1
	}
	if workers > 8 {
		workers = 8
	}
	// Select the random half, then shuffle the insertion order.
	rng := xrand.New(cfg.Seed^0xda7a5e7, 0)
	keys := make([]uint64, 0, cfg.KeyRange/2+1)
	for k := uint64(1); k <= cfg.KeyRange; k++ {
		if rng.Next()&1 == 0 {
			keys = append(keys, k)
		}
	}
	for i := len(keys) - 1; i > 0; i-- {
		j := int(rng.Uint64n(uint64(i + 1)))
		keys[i], keys[j] = keys[j], keys[i]
	}

	sums := make([]uint64, workers)
	counts := make([]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := d.NewHandle()
			for i := w; i < len(keys); i += workers {
				k := keys[i]
				if _, existed := h.Insert(k, k); !existed {
					sums[w] += k
					counts[w]++
				}
				// Prefill counts toward the liveness watchdog too: with
				// faults armed, a stall can fire during prefill, and its
				// progress window needs the peers' inserts to be visible.
				cfg.Liveness.OpDone()
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		sum += sums[w]
		count += counts[w]
	}
	return sum, count
}

// RQLen draws a range-query length from the paper's ⌊x²·S⌋+1
// distribution: many small queries, a few very large ones.
func RQLen(rng *xrand.State, s uint64) uint64 {
	x := rng.Float64()
	return uint64(x*x*float64(s)) + 1
}

// Run executes one trial: prefill, timed measurement, key-sum
// validation.
func Run(d dict.Dict, cfg Config) Result {
	if cfg.Threads < 1 {
		cfg.Threads = 1
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 100 * time.Millisecond
	}
	if cfg.KeyRange == 0 {
		cfg.KeyRange = 10000
	}
	if cfg.RQSizeMax == 0 {
		cfg.RQSizeMax = 1000
	}
	if cfg.Kind == 0 {
		cfg.Kind = Light
	}

	var baseSum, baseCount uint64
	if !cfg.SkipPrefill {
		baseSum, baseCount = Prefill(d, cfg)
	}

	// Shared Zipf state (O(KeyRange) harmonic precomputation, done once
	// per trial; draws are O(1) and contention-free).
	var zg *zipfGen
	if cfg.Dist == DistZipf {
		zg = newZipfGen(cfg.KeyRange, cfg.ZipfTheta)
	}

	// Per-shard operation baseline, so MaxShardShare reflects only the
	// measured window, not the (uniform) prefill.
	var shardBase []uint64
	if sd, ok := d.(*shard.Dict); ok {
		shardBase = shardOpTotals(sd)
	}

	var stop atomic.Bool
	deltas := make([]delta, cfg.Threads)
	var wg sync.WaitGroup
	var ready sync.WaitGroup
	start := make(chan struct{})

	for i := 0; i < cfg.Threads; i++ {
		wg.Add(1)
		ready.Add(1)
		go func(i int) {
			defer wg.Done()
			h := d.NewHandle()
			rng := xrand.New(cfg.Seed, uint64(i)+1)
			isRQ := cfg.Kind == Heavy && i == cfg.Threads-1
			isAgg := cfg.Kind == Analytics && i == cfg.Threads-1
			var ah dict.AggHandle
			if isAgg {
				var ok bool
				if ah, ok = h.(dict.AggHandle); !ok {
					panic(fmt.Sprintf("workload: Analytics needs aggregate queries, but %T does not implement dict.AggHandle", h))
				}
			}
			klo, khi := updaterInterval(d, cfg, i)
			gen := keyGen(cfg, zg, klo, khi)
			var out []dict.KV
			ready.Done()
			<-start
			st := &deltas[i]
			if !isRQ && !isAgg && cfg.BatchOps > 1 {
				runBatchedUpdater(h, cfg, rng, gen, st, &stop)
				return
			}
			measure := cfg.MeasureLatency
			for !stop.Load() {
				var t0 time.Time
				if measure {
					t0 = time.Now()
				}
				if isAgg {
					lo := rng.Uint64n(cfg.KeyRange) + 1
					if _, err := ah.RangeAgg(lo, lo+RQLen(rng, cfg.RQSizeMax)); err != nil {
						panic(fmt.Sprintf("workload: aggregate query failed: %v", err))
					}
					st.aggs++
				} else if isRQ {
					lo := rng.Uint64n(cfg.KeyRange) + 1
					out = h.RangeQuery(lo, lo+RQLen(rng, cfg.RQSizeMax), out[:0])
					st.rqs++
				} else {
					k := gen(rng)
					if rng.Next()&1 == 0 {
						if _, existed := h.Insert(k, k); !existed {
							st.sum += int64(k)
							st.count++
						}
					} else {
						if _, existed := h.Delete(k); existed {
							st.sum -= int64(k)
							st.count--
						}
					}
					st.updates++
				}
				if measure {
					st.lat.Record(uint64(time.Since(t0)))
				}
				st.ops++
				cfg.Liveness.OpDone()
				if cfg.YieldEvery > 0 && st.ops%uint64(cfg.YieldEvery) == 0 {
					runtime.Gosched()
				}
			}
		}(i)
	}
	ready.Wait()
	close(start)
	time.Sleep(cfg.Duration)
	stop.Store(true)
	wg.Wait()

	var res Result
	if cfg.MeasureLatency {
		res.Latency = &hist.Hist{}
		res.RQLatency = &hist.Hist{}
	}
	var deltaSum, deltaCount int64
	for i := range deltas {
		res.Ops += deltas[i].ops
		res.UpdateOps += deltas[i].updates
		res.RQOps += deltas[i].rqs
		res.AggOps += deltas[i].aggs
		deltaSum += deltas[i].sum
		deltaCount += deltas[i].count
		if cfg.MeasureLatency {
			// The heavy and analytics workloads' dedicated query thread
			// is the last one; its histogram holds query latencies,
			// every other thread's holds update latencies.
			if (cfg.Kind == Heavy || cfg.Kind == Analytics) && i == cfg.Threads-1 {
				res.RQLatency.Merge(&deltas[i].lat)
			} else {
				res.Latency.Merge(&deltas[i].lat)
			}
		}
	}
	res.Throughput = float64(res.Ops) / cfg.Duration.Seconds()

	sum, count := d.KeySum()
	res.FinalSize = count
	res.KeySumOK = int64(sum) == int64(baseSum)+deltaSum &&
		int64(count) == int64(baseCount)+deltaCount

	if sp, ok := d.(StatsProvider); ok {
		res.PathStats = sp.OpStats()
		res.HTMStats = sp.HTMStats()
	}
	if sd, ok := d.(*shard.Dict); ok {
		res.Rebalance = sd.RebalanceStats()
		res.Batch = sd.BatchStats()
		tot := shardOpTotals(sd)
		var sum, max uint64
		for i := range tot {
			delta := tot[i] - shardBase[i]
			sum += delta
			if delta > max {
				max = delta
			}
		}
		if sum > 0 {
			res.MaxShardShare = float64(max) / float64(sum)
		}
	}
	return res
}

// updaterInterval returns the inclusive key interval [lo, hi] update
// thread i draws from: the full [1, KeyRange] by default, or the
// thread's home-shard slice of it when cfg.PinUpdaters and the
// dictionary exposes its partition layout. An empty intersection
// (a shard entirely outside the trial's key range, or hash routing's
// full-space bounds) falls back to the full range.
func updaterInterval(d dict.Dict, cfg Config, i int) (lo, hi uint64) {
	lo, hi = 1, cfg.KeyRange
	if !cfg.PinUpdaters {
		return lo, hi
	}
	si, ok := d.(ShardInfo)
	if !ok {
		return lo, hi
	}
	n := si.NumShards()
	if n < 1 {
		return lo, hi
	}
	blo, bhi := si.Bounds(i % n) // bhi exclusive
	if blo < 1 {
		blo = 1
	}
	if bhi > cfg.KeyRange+1 || bhi == 0 {
		bhi = cfg.KeyRange + 1
	}
	if blo >= bhi {
		return lo, hi // empty slice: stay unpinned
	}
	return blo, bhi - 1
}
