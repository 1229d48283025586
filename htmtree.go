// Package htmtree is a Go reproduction of Trevor Brown's "A Template
// for Implementing Fast Lock-free Trees Using HTM" (PODC 2017).
//
// It provides two concurrent ordered dictionaries built from the LLX/SCX
// tree update template — an unbalanced external binary search tree and a
// relaxed (a,b)-tree — each runnable under every template algorithm the
// paper studies:
//
//   - NonHTM: the original lock-free template (the baseline),
//   - TLE: transactional lock elision,
//   - TwoPathConc: HTM fast path concurrent with the lock-free fallback,
//   - TwoPathNCon: HTM fast path, concurrency with the fallback disallowed,
//   - ThreePath: the paper's contribution — an uninstrumented HTM fast
//     path, an instrumented HTM middle path, and a lock-free fallback
//     path, with concurrency between adjacent paths,
//   - SCXHTM: the Section 4 algorithm (HTM-accelerated LLX/SCX
//     primitives with the operation structure unchanged).
//
// Hardware transactional memory is simulated in software (Go has no TSX
// intrinsics): transactions are opaque and strongly atomic with respect
// to non-transactional accesses, and abort with conflict / capacity /
// explicit / spurious causes, so every algorithmic interaction the paper
// describes is exercised. See DESIGN.md for the substitution argument
// and EXPERIMENTS.md for paper-versus-measured results.
//
// Quickstart:
//
//	tree, err := htmtree.NewABTree(htmtree.Config{Algorithm: htmtree.ThreePath})
//	if err != nil { ... }
//	h := tree.NewHandle() // one handle per goroutine
//	h.Insert(42, 1)
//	v, ok := h.Search(42)
//	pairs := h.RangeQuery(0, 100, nil)
package htmtree

import (
	"fmt"
	"strconv"
	"time"

	"htmtree/internal/abtree"
	"htmtree/internal/batch"
	"htmtree/internal/bst"
	"htmtree/internal/dict"
	"htmtree/internal/engine"
	"htmtree/internal/fault"
	"htmtree/internal/htm"
	"htmtree/internal/obs"
	"htmtree/internal/shard"
)

// Algorithm names one of the template implementations.
type Algorithm string

// The template algorithms of the paper.
const (
	NonHTM      Algorithm = "non-htm"
	TLE         Algorithm = "tle"
	TwoPathConc Algorithm = "2-path-con"
	TwoPathNCon Algorithm = "2-path-ncon"
	ThreePath   Algorithm = "3-path"
	SCXHTM      Algorithm = "scx-htm"
)

// Algorithms lists every algorithm in presentation order.
func Algorithms() []Algorithm {
	return []Algorithm{NonHTM, TLE, TwoPathConc, TwoPathNCon, ThreePath, SCXHTM}
}

// MaxKey is the largest key a client may store (larger values are
// reserved for internal sentinels).
const MaxKey = dict.MaxKey

// Policy names a retry policy: what the engine does with the abort
// cause (conflict / capacity / spurious / explicit) a failed
// transactional attempt reports.
type Policy string

// Retry policies.
const (
	// PolicyAdaptive (the default) adapts per cause: randomized bounded
	// exponential backoff before conflict retries, immediate path
	// abandonment on capacity aborts (with per-site capacity memory
	// that starts repeat offenders past the fast path), and bounded
	// budget-free retries after spurious aborts.
	PolicyAdaptive Policy = "adaptive"
	// PolicyStatic is the cause-blind baseline: fixed attempt budgets,
	// no backoff — the loops of the paper's Section 7 setup.
	PolicyStatic Policy = "static"
)

// Policies lists every retry policy, default first.
func Policies() []Policy { return []Policy{PolicyAdaptive, PolicyStatic} }

// TMBackend names a transactional-memory backend implementation.
type TMBackend string

// TM backends.
const (
	// TMBackendSim (the default) is the TL2-flavoured simulator:
	// optimistic per-cell versioning with capacity limits and spurious
	// abort injection.
	TMBackendSim TMBackend = "sim"
	// TMBackendTLELock serializes each tree's (or shard's) transactions
	// on a mutex: no conflicts between transactions, no footprint
	// limit, no spurious aborts — the classic software substitute on
	// machines without TM. Strong atomicity against non-transactional
	// fallback-path code is preserved (commits still run the versioned
	// protocol).
	TMBackendTLELock TMBackend = "tle-lock"
)

// TMBackends lists every TM backend, default first.
func TMBackends() []TMBackend { return []TMBackend{TMBackendSim, TMBackendTLELock} }

// RouterKind names a shard-routing policy for sharded trees.
type RouterKind string

// Shard routing policies.
const (
	// RouterRange is the default contiguous key-range split: shard i
	// owns [i*width, (i+1)*width). Fast, order-preserving fan-outs, but
	// a skewed (Zipfian / hot-range) workload collapses onto the shard
	// owning the hot keys.
	RouterRange RouterKind = "range"
	// RouterHash scatters keys across shards by a mixing hash:
	// skew-oblivious, but every multi-key RangeQuery must visit all
	// shards and merge-sort the results.
	RouterHash RouterKind = "hash"
	// RouterAdaptive is the range router plus live rebalancing: the
	// tree tracks per-shard operation counts and, when one shard runs
	// disproportionately hot, migrates a boundary slice of its key range
	// to a neighbor shard by briefly quiescing exactly the two affected
	// shards and swapping the routing table. Implies the
	// AtomicRangeQueries read-validation protocol.
	RouterAdaptive RouterKind = "adaptive"
)

// RouterKinds lists every routing policy in presentation order.
func RouterKinds() []RouterKind {
	return []RouterKind{RouterRange, RouterHash, RouterAdaptive}
}

// KV is a key-value pair returned by range queries.
type KV struct {
	Key, Val uint64
}

// Agg is the aggregate tuple of a key range: the sum and count of the
// keys present, and the smallest and largest of them. An empty range
// has Count == 0 with Min == MaxUint64 and Max == 0 (the merge
// identities); check Count before trusting Min/Max.
type Agg struct {
	Sum, Count, Min, Max uint64
}

// Config configures a tree. The zero value selects the 3-path algorithm
// with the paper's default parameters.
type Config struct {
	// Algorithm selects the template implementation (default ThreePath).
	Algorithm Algorithm

	// ReadCapacity and WriteCapacity bound the simulated transactional
	// footprint (defaults model an Intel-like HTM).
	ReadCapacity, WriteCapacity int
	// POWER8Profile selects the much smaller POWER8-like transactional
	// footprint (Section 8 of the paper) instead.
	POWER8Profile bool
	// SpuriousAbortEvery injects a spurious abort with probability
	// 1/SpuriousAbortEvery per transactional access (0 disables).
	SpuriousAbortEvery uint64
	// TMBackend selects the transactional-memory implementation
	// (default TMBackendSim). The capacity and spurious knobs above
	// only apply to the simulator.
	TMBackend TMBackend

	// RetryPolicy selects how the engine reacts to each abort cause
	// (default PolicyAdaptive).
	RetryPolicy Policy

	// AttemptLimit is the fast-path budget for TLE and the 2-path
	// algorithms (default 20); FastLimit and MiddleLimit are the 3-path
	// budgets (default 10 each).
	AttemptLimit, FastLimit, MiddleLimit int
	// UseSNZI replaces the fallback-presence counter with a scalable
	// non-zero indicator.
	UseSNZI bool
	// HelpableFallback replaces the TLE fallback's classic spin lock
	// with a helpable lock: a fallback operation announces itself as a
	// descriptor before taking the lock word, and any thread that finds
	// the word held completes the announced operation instead of
	// spinning — so a preempted lock holder no longer stalls every other
	// thread (the lock-free-locks construction). TLE algorithm only;
	// ignored by the others, whose fallbacks are already lock-free.
	HelpableFallback bool
	// PreemptFallbackPoint, when non-nil, is called once by each
	// fallback operation immediately after it acquires (or, with
	// HelpableFallback, announces under) the fallback lock — a
	// scheduling-perturbation hook for oversubscription stress tests.
	//
	// Deprecated: use Faults with a FaultFallbackOwner rule, which
	// generalizes this hook to deterministic triggers, stalls, and
	// permanent owner death. The field keeps working: it is compiled
	// into the tree's fault plan as a Func rule firing on every
	// fallback entry.
	PreemptFallbackPoint func()
	// Faults, when non-nil, arms the deterministic fault-injection
	// plane (NewFaultPlan) across every layer of the tree: forced
	// transactional aborts, fallback-owner stalls and permanent owner
	// death, quiesce and migration interruptions, reclamation pin
	// stalls, aggregate-seqlock writer stalls, and batch flush delays.
	// One plan may be shared by several trees; its per-point counters
	// are then global. On an observed tree (Observability set) every
	// fired fault is additionally recorded in the flight recorder as a
	// fault_abort / fault_stall / fault_kill event, so a chaos failure
	// reproduces from the (seed, plan) pair alone. Nil (the default)
	// compiles every injection check to a single predictable branch.
	Faults *FaultPlan
	// SearchOutsideTx enables the Section 8 optimization on the BST:
	// operations locate their target with unsubscribed reads and
	// revalidate inside the transaction. The (a,b)-tree does not
	// implement it: there the flag only turns off immediate recycling of
	// fast-path removals, and every descent stays subscribed.
	SearchOutsideTx bool

	// A and B are the (a,b)-tree degree bounds (defaults 6 and 16;
	// ignored by the BST).
	A, B int

	// Shards is the partition count for NewShardedBST / NewShardedABTree
	// (default 8; ignored by NewBST / NewABTree). Each
	// shard is an independent tree with its own engine, HTM context, and
	// fallback indicator.
	Shards int
	// ShardKeySpan is the exclusive upper bound of the key range the
	// partition is balanced over (default MaxKey+1). Set it near the
	// workload's key range so the shards share load evenly; larger keys
	// remain legal and route to the last shard.
	ShardKeySpan uint64
	// Router selects how keys map to shards on a sharded tree (default
	// RouterRange, the original contiguous split). RouterHash scatters
	// keys (skew-oblivious, all-shard range queries); RouterAdaptive
	// adds live key-range rebalancing to the range split. Ignored by
	// unsharded trees.
	Router RouterKind
	// RebalanceCheckOps is the number of point operations a handle
	// performs between shard-imbalance evaluations with RouterAdaptive
	// (default 1024). Smaller values react to skew faster but evaluate
	// more often.
	RebalanceCheckOps int
	// RebalanceRatio triggers a migration when the busiest shard
	// performed more than RebalanceRatio times the per-shard mean of
	// recent operations (default 1.5). Values in (0, 1] force a
	// migration on every evaluation — useful in tests.
	RebalanceRatio float64
	// AtomicRangeQueries makes RangeQuery and KeySum on a sharded tree
	// atomic across shards: every shard carries a version/epoch monitor
	// that updaters advance exactly at operation commit, and a
	// multi-shard read validates that no shard's version moved while it
	// ran, retrying (and, after RQRetries attempts, briefly quiescing
	// the overlapping shards) otherwise. Without it, a cross-shard read
	// observes each shard at a possibly different point in time.
	// Ignored by unsharded trees, whose reads are single operations and
	// already atomic.
	AtomicRangeQueries bool
	// RQRetries bounds the optimistic validation attempts of an atomic
	// cross-shard read before it escalates to quiescing the overlapping
	// shards (default 8). Ignored unless AtomicRangeQueries.
	RQRetries int

	// BatchMaxOps is the buffer size at which an asynchronous handle
	// (NewAsyncHandle, Handle.Batch) flushes its pending operations as
	// one sorted, shard-grouped batch (default 64). Larger batches
	// amortize routing and admission overhead further but delay
	// results longer.
	BatchMaxOps int
	// BatchMaxDelay bounds how long an asynchronous operation may sit
	// buffered before a background timer flushes it (0, the default,
	// disables the timer: the buffer flushes only on size, RangeQuery,
	// Flush, or Wait). Applies to NewAsyncHandle; Handle.Batch contexts
	// never arm the timer so the underlying Handle stays usable from
	// its own goroutine.
	BatchMaxDelay time.Duration
	// BatchRQNoFlush leaves buffered point operations in place when an
	// asynchronous RangeQuery arrives. By default the query flushes
	// them first, so it observes the handle's own pending writes
	// (read-your-writes).
	BatchRQNoFlush bool

	// Observability, when non-nil, attaches the live observability
	// layer: a pull-model metrics registry over the counters the tree
	// already maintains (Prometheus text and JSON exposition), sampled
	// operation latency histograms, per-thread flight recorders of
	// abort/help/migration events, and runtime/trace regions around
	// operation execution. Retrieve the domain with Tree.Obs and serve
	// it over HTTP with obs.Serve. The zero ObsConfig selects the
	// default sampling rates; instrumented steady-state point
	// operations stay allocation-free.
	Observability *ObsConfig
}

// ObsConfig configures the observability layer (Config.Observability).
// The zero value selects the defaults; see each field for how to
// disable its subsystem outright.
type ObsConfig struct {
	// LatencySample times one point operation in every LatencySample
	// (default 64; negative disables latency timing).
	LatencySample int
	// EventSample records one hot-path flight-recorder event (operation
	// completions, transactional aborts) in every EventSample (default
	// 64; negative disables hot events). Cold events — announce, help,
	// install, fallback acquisition, quiesce, migration — are always
	// recorded.
	EventSample int
	// EventBuffer is the per-thread flight-recorder ring capacity in
	// events, rounded up to a power of two (default 2048; negative
	// disables the recorder entirely).
	EventBuffer int
}

// Fault-injection plane (internal/fault), re-exported for external
// chaos harnesses: a FaultPlan compiles a seed and per-point FaultRule
// triggers into deterministic injected effects at the named seams.
// See Config.Faults and ARCHITECTURE.md ("Fault injection & liveness
// checking") for the point catalogue and reproduction workflow.
type (
	// FaultPlan is a compiled, live fault plan (fault.Plan).
	FaultPlan = fault.Plan
	// FaultRule arms one injection point (fault.Rule).
	FaultRule = fault.Rule
	// FaultPoint names an injection point (fault.Point).
	FaultPoint = fault.Point
	// FaultLiveness is the progress watchdog (fault.Liveness):
	// attach with plan.Watch, feed it completed operations with
	// OpDone, and Check that throughput stayed nonzero during every
	// watched stall window.
	FaultLiveness = fault.Liveness
)

// The injection-point catalogue (see the fault package for the exact
// seam each point is compiled into).
const (
	FaultTxAccess      = fault.PointTxAccess
	FaultFallbackOwner = fault.PointFallbackOwner
	FaultQuiesce       = fault.PointQuiesce
	FaultMigrateSwap   = fault.PointMigrateSwap
	FaultMigrateDelete = fault.PointMigrateDelete
	FaultEBRPin        = fault.PointEBRPin
	FaultAggFixup      = fault.PointAggFixup
	FaultBatchFlush    = fault.PointBatchFlush
)

// NewFaultPlan compiles a fault plan from a seed and rules
// (fault.New). Every trigger decision is a pure function of the seed,
// the point, and the per-point encounter index, so a run reproduces
// from the (seed, plan) pair.
func NewFaultPlan(seed uint64, rules ...FaultRule) *FaultPlan {
	return fault.New(seed, rules...)
}

// withFaults resolves the effective fault plan: Config.Faults extended
// with the deprecated PreemptFallbackPoint hook compiled to a
// FaultFallbackOwner Func rule firing on every fallback entry. Public
// constructors call it once, before any per-shard construction, so a
// sharded tree's shards share one compiled plan (and one set of
// encounter counters).
func (c Config) withFaults() Config {
	if c.PreemptFallbackPoint != nil {
		c.Faults = c.Faults.With(FaultRule{
			Point: FaultFallbackOwner,
			Func:  c.PreemptFallbackPoint,
		})
		c.PreemptFallbackPoint = nil
	}
	return c
}

// wireFaultRecorder bridges fired faults into the flight recorder:
// every fire becomes a cold event (fault_abort for forced
// transactional aborts, fault_kill for owner death, fault_stall
// otherwise) with A = the fault point and B = the per-point fire
// sequence number, so a recorded chaos run names exactly which
// injections it suffered.
func wireFaultRecorder(p *FaultPlan, o *obs.Obs) {
	if p == nil || o == nil {
		return
	}
	rec := o.Node().NewThread()
	p.SetOnFire(func(e fault.Effect) {
		kind := obs.EvFaultStall
		switch {
		case e.Point == fault.PointTxAccess:
			kind = obs.EvFaultAbort
		case e.Kill:
			kind = obs.EvFaultKill
		}
		rec.RareEvent(kind, 0, htm.CauseNone, uint64(e.Point), e.Seq)
	})
}

// domain builds the tree's observability domain, nil when disabled.
func (c Config) obsDomain() *obs.Obs {
	if c.Observability == nil {
		return nil
	}
	return obs.New(obs.Config{
		LatencySample: c.Observability.LatencySample,
		EventSample:   c.Observability.EventSample,
		EventBuffer:   c.Observability.EventBuffer,
	})
}

// obsNode returns an unlabelled registration node of o, or nil.
func obsNode(o *obs.Obs) *obs.Node {
	if o == nil {
		return nil
	}
	return o.Node()
}

func (c Config) algorithm() (engine.Algorithm, error) {
	if c.Algorithm == "" {
		return engine.AlgThreePath, nil
	}
	a, ok := engine.ParseAlgorithm(string(c.Algorithm))
	if !ok {
		return 0, fmt.Errorf("htmtree: unknown algorithm %q", c.Algorithm)
	}
	return a, nil
}

func (c Config) htmConfig() (htm.Config, error) {
	cfg := htm.Config{
		ReadCapacity:  c.ReadCapacity,
		WriteCapacity: c.WriteCapacity,
		SpuriousEvery: c.SpuriousAbortEvery,
		Faults:        c.Faults,
	}
	switch c.TMBackend {
	case "", TMBackendSim:
	case TMBackendTLELock:
		cfg.Backend = htm.BackendTLELock
	default:
		return cfg, fmt.Errorf("htmtree: unknown TM backend %q", c.TMBackend)
	}
	if c.POWER8Profile {
		p := htm.POWER8Config()
		if cfg.ReadCapacity == 0 {
			cfg.ReadCapacity = p.ReadCapacity
		}
		if cfg.WriteCapacity == 0 {
			cfg.WriteCapacity = p.WriteCapacity
		}
	}
	return cfg, nil
}

func (c Config) engineConfig() (engine.Config, error) {
	cfg := engine.Config{
		AttemptLimit:     c.AttemptLimit,
		FastLimit:        c.FastLimit,
		MiddleLimit:      c.MiddleLimit,
		HelpableFallback: c.HelpableFallback,
		// PreemptFallbackPoint is not mapped here: withFaults compiled
		// it into c.Faults before construction.
		Faults: c.Faults,
	}
	if c.UseSNZI {
		cfg.Indicator = engine.NewSNZIIndicator()
	}
	pol, ok := engine.ParsePolicy(string(c.RetryPolicy))
	if !ok {
		return cfg, fmt.Errorf("htmtree: unknown retry policy %q", c.RetryPolicy)
	}
	cfg.Policy = pol
	return cfg, nil
}

// statsSource exposes the internal statistics of a tree.
type statsSource interface {
	OpStats() engine.OpStats
	HTMStats() htm.Stats
}

// Tree is a concurrent ordered dictionary (BST or (a,b)-tree) built from
// the accelerated tree update template. Create one with NewBST or
// NewABTree and access it through per-goroutine handles.
type Tree struct {
	d          dict.Dict
	stats      statsSource
	invariants func(strict bool) error

	// aggStats reports how many aggregate queries were answered by the
	// O(log n) transactional descent versus the LLX-validated leaf walk
	// (nil for structures without maintained aggregates, i.e. the BST).
	aggStats func() (fast, walk uint64)

	// batchCfg templates the pipelines behind NewAsyncHandle and
	// Handle.Batch; batchCtrs aggregates their flush activity for
	// Stats.Batch.
	batchCfg  batch.Config
	batchCtrs *batch.Counters

	// obs is the live observability domain (nil unless
	// Config.Observability was set).
	obs *obs.Obs
}

// Obs returns the tree's observability domain — nil unless the tree
// was built with Config.Observability. Serve it over HTTP with
// obs.Serve, scrape it directly with Obs.Snapshot/WriteProm, or drain
// the flight recorders with Obs.Events.
func (t *Tree) Obs() *obs.Obs { return t.obs }

// setBatchConfig validates the async-batching knobs and installs the
// pipeline template every constructor shares.
func (t *Tree) setBatchConfig(cfg Config) error {
	if cfg.BatchMaxOps < 0 {
		return fmt.Errorf("htmtree: Config.BatchMaxOps = %d (want >= 0; 0 selects the default %d)",
			cfg.BatchMaxOps, batch.DefaultMaxOps)
	}
	if cfg.BatchMaxDelay < 0 {
		return fmt.Errorf("htmtree: Config.BatchMaxDelay = %v (want >= 0; 0 disables the flush timer)",
			cfg.BatchMaxDelay)
	}
	t.batchCtrs = &batch.Counters{}
	t.batchCfg = batch.Config{
		MaxOps:       cfg.BatchMaxOps,
		MaxDelay:     cfg.BatchMaxDelay,
		RangeNoFlush: cfg.BatchRQNoFlush,
		Counters:     t.batchCtrs,
		Faults:       cfg.Faults,
	}
	return nil
}

// withBatch finishes a constructed tree by installing the async
// batching configuration (all four public constructors go through it).
func withBatch(t *Tree, err error, cfg Config) (*Tree, error) {
	if err != nil {
		return nil, err
	}
	if err := t.setBatchConfig(cfg); err != nil {
		return nil, err
	}
	return t, nil
}

// withObs attaches the observability domain to a finished tree and
// registers the tree-level metric families (batch-flush activity; the
// engine and shard layers registered their own families during
// construction). Runs after withBatch so batchCtrs exists.
func withObs(t *Tree, err error, o *obs.Obs) (*Tree, error) {
	if err != nil || o == nil {
		return t, err
	}
	t.obs = o
	ctrs := t.batchCtrs
	n := o.Node()
	n.Counter("htmtree_batch_flushes_total",
		"Non-empty batch buffer flushes across the tree's asynchronous handles.",
		func(emit obs.Point) { emit(float64(ctrs.Snapshot().Flushes)) })
	n.Counter("htmtree_batch_flushed_ops_total",
		"Point operations carried by batch flushes.",
		func(emit obs.Point) { emit(float64(ctrs.Snapshot().FlushedOps)) })
	return t, nil
}

// NewBST creates an unbalanced external binary search tree (paper
// Section 6.1).
func NewBST(cfg Config) (*Tree, error) {
	cfg = cfg.withFaults()
	o := cfg.obsDomain()
	wireFaultRecorder(cfg.Faults, o)
	t, err := newBST(cfg, nil, obsNode(o))
	t, err = withBatch(t, err, cfg)
	return withObs(t, err, o)
}

func newBST(cfg Config, mon *engine.UpdateMonitor, node *obs.Node) (*Tree, error) {
	alg, err := cfg.algorithm()
	if err != nil {
		return nil, err
	}
	hcfg, err := cfg.htmConfig()
	if err != nil {
		return nil, err
	}
	ecfg, err := cfg.engineConfig()
	if err != nil {
		return nil, err
	}
	ecfg.Monitor = mon
	ecfg.Obs = node
	t := bst.New(bst.Config{
		Algorithm:       alg,
		HTM:             hcfg,
		Engine:          ecfg,
		SearchOutsideTx: cfg.SearchOutsideTx,
	})
	return &Tree{
		d:     t,
		stats: t,
		invariants: func(bool) error {
			return t.CheckInvariants()
		},
	}, nil
}

// NewABTree creates a relaxed (a,b)-tree (paper Section 6.2).
func NewABTree(cfg Config) (*Tree, error) {
	cfg = cfg.withFaults()
	o := cfg.obsDomain()
	wireFaultRecorder(cfg.Faults, o)
	t, err := newABTree(cfg, nil, obsNode(o))
	t, err = withBatch(t, err, cfg)
	return withObs(t, err, o)
}

func newABTree(cfg Config, mon *engine.UpdateMonitor, node *obs.Node) (*Tree, error) {
	alg, err := cfg.algorithm()
	if err != nil {
		return nil, err
	}
	if cfg.A != 0 && (cfg.A < 2 || cfg.B < 2*cfg.A-1) {
		return nil, fmt.Errorf("htmtree: invalid degree bounds a=%d b=%d", cfg.A, cfg.B)
	}
	hcfg, err := cfg.htmConfig()
	if err != nil {
		return nil, err
	}
	ecfg, err := cfg.engineConfig()
	if err != nil {
		return nil, err
	}
	ecfg.Monitor = mon
	ecfg.Obs = node
	t := abtree.New(abtree.Config{
		A:               cfg.A,
		B:               cfg.B,
		Algorithm:       alg,
		HTM:             hcfg,
		Engine:          ecfg,
		SearchOutsideTx: cfg.SearchOutsideTx,
	})
	return &Tree{d: t, stats: t, invariants: t.CheckInvariants, aggStats: t.AggStats}, nil
}

// newSharded partitions the key space across cfg.Shards instances built
// by mk, wiring aggregate stats and invariant checking through the
// shard layer. With AtomicRangeQueries or RouterAdaptive each inner
// tree's engine gets the shard's update monitor, and the SNZI
// preference carries over to the quiesce gates. With an observability
// domain each inner engine registers its families under a shard="i"
// label and the shard layer registers its own (read validation,
// migration) unlabelled.
func newSharded(cfg Config, o *obs.Obs, mk func(mon *engine.UpdateMonitor, node *obs.Node) (*Tree, error)) (*Tree, error) {
	var inner []*Tree
	var ctorErr error
	scfg := shard.Config{
		Shards:    cfg.Shards,
		KeySpan:   cfg.ShardKeySpan,
		Atomic:    cfg.AtomicRangeQueries,
		RQRetries: cfg.RQRetries,
		Obs:       obsNode(o),
		Faults:    cfg.Faults,
		New: func(i int, mon *engine.UpdateMonitor) dict.Dict {
			var node *obs.Node
			if o != nil {
				node = o.Node(obs.L("shard", strconv.Itoa(i)))
			}
			t, mkErr := mk(mon, node)
			if mkErr != nil {
				ctorErr = mkErr
				return emptyDict{}
			}
			inner = append(inner, t)
			return t.d
		},
	}
	switch cfg.Router {
	case "", RouterRange:
		// The default contiguous split, built by the shard layer.
	case RouterHash:
		n := cfg.Shards
		if n == 0 {
			n = shard.DefaultShards
		}
		r, rerr := shard.NewHashRouter(n)
		if rerr != nil {
			return nil, rerr
		}
		scfg.Router = r
	case RouterAdaptive:
		scfg.Rebalance = &shard.RebalanceConfig{
			CheckOps: cfg.RebalanceCheckOps,
			Ratio:    cfg.RebalanceRatio,
		}
	default:
		return nil, fmt.Errorf("htmtree: unknown router %q", cfg.Router)
	}
	if cfg.UseSNZI {
		scfg.Gate = func(int) engine.Indicator { return engine.NewSNZIIndicator() }
	}
	sd, err := shard.New(scfg)
	if err != nil {
		return nil, err
	}
	if ctorErr != nil {
		return nil, ctorErr
	}
	st := &Tree{
		d:     sd,
		stats: sd,
		invariants: func(strict bool) error {
			for i, t := range inner {
				if ivErr := t.invariants(strict); ivErr != nil {
					return fmt.Errorf("shard %d: %w", i, ivErr)
				}
			}
			return sd.CheckPartition()
		},
	}
	if len(inner) > 0 && inner[0].aggStats != nil {
		st.aggStats = func() (fast, walk uint64) {
			for _, t := range inner {
				f, w := t.aggStats()
				fast += f
				walk += w
			}
			return fast, walk
		}
	}
	return st, nil
}

// emptyDict stands in for a shard whose constructor failed; the shard
// dictionary holding it is discarded before use.
type emptyDict struct{}

func (emptyDict) NewHandle() dict.Handle      { return nil }
func (emptyDict) KeySum() (sum, count uint64) { return 0, 0 }

// NewShardedBST creates a sharded BST: the key space is partitioned
// across cfg.Shards independent trees (each with its own engine, HTM
// context, and fallback indicator). Point operations route to the
// owning shard; RangeQuery fans out to the overlapping shards and
// returns a globally key-ordered result — atomic per shard always, and
// atomic across shards when cfg.AtomicRangeQueries is set; KeySum,
// Stats, and CheckInvariants aggregate.
func NewShardedBST(cfg Config) (*Tree, error) {
	cfg = cfg.withFaults()
	o := cfg.obsDomain()
	wireFaultRecorder(cfg.Faults, o)
	t, err := newSharded(cfg, o, func(mon *engine.UpdateMonitor, node *obs.Node) (*Tree, error) {
		return newBST(cfg, mon, node)
	})
	t, err = withBatch(t, err, cfg)
	return withObs(t, err, o)
}

// NewShardedABTree creates a sharded relaxed (a,b)-tree; see
// NewShardedBST for the partitioning contract.
func NewShardedABTree(cfg Config) (*Tree, error) {
	cfg = cfg.withFaults()
	o := cfg.obsDomain()
	wireFaultRecorder(cfg.Faults, o)
	t, err := newSharded(cfg, o, func(mon *engine.UpdateMonitor, node *obs.Node) (*Tree, error) {
		return newABTree(cfg, mon, node)
	})
	t, err = withBatch(t, err, cfg)
	return withObs(t, err, o)
}

// NewHandle registers a per-goroutine handle. Handles must not be shared
// between goroutines.
func (t *Tree) NewHandle() *Handle {
	return &Handle{t: t, h: t.d.NewHandle()}
}

// NewAsyncHandle registers a per-goroutine asynchronous handle: point
// operations enqueue into a batch buffer and return futures, and the
// buffer flushes as one key-sorted, shard-grouped batch when it
// reaches Config.BatchMaxOps, when Config.BatchMaxDelay elapses, on an
// asynchronous RangeQuery (unless Config.BatchRQNoFlush), on Flush, or
// when a future of a still-buffered operation is waited on. On a
// sharded tree each shard-group executes with one router lookup and
// one monitor admission instead of one per operation — the batching
// subsystem's amortization, reported by Stats.Batch.
//
// One goroutine should enqueue per AsyncHandle (like Handle); with
// BatchMaxDelay set, the background timer may flush concurrently,
// which the handle synchronizes internally.
func (t *Tree) NewAsyncHandle() *AsyncHandle {
	return &AsyncHandle{p: batch.New(t.d.NewHandle(), t.batchCfg)}
}

// Batch returns an asynchronous batching context over this handle's
// registration. It shares the underlying per-goroutine handle: while
// batched operations are pending, direct Handle calls would interleave
// with a flush, so use one style at a time (Flush drains the context,
// after which the Handle is plainly usable again). Unlike
// NewAsyncHandle, a Batch context never arms the BatchMaxDelay timer —
// flushes happen only on size, RangeQuery, Flush, or Wait, always on
// the calling goroutine.
func (h *Handle) Batch() *AsyncHandle {
	cfg := h.t.batchCfg
	cfg.MaxDelay = 0
	return &AsyncHandle{p: batch.New(h.h, cfg)}
}

// KeySum returns the sum and count of the keys present (the paper's
// validation checksum). On a sharded tree with AtomicRangeQueries it is
// a consistent cut and may run concurrently with updates; otherwise it
// is quiescent use only.
func (t *Tree) KeySum() (sum, count uint64) { return t.d.KeySum() }

// CheckInvariants validates the structure (quiescent use only).
func (t *Tree) CheckInvariants() error { return t.invariants(true) }

// Handle is a per-goroutine handle to a Tree.
type Handle struct {
	t   *Tree
	h   dict.Handle
	buf []dict.KV
}

// Insert associates key with val, returning the previous value and
// whether the key was already present.
func (h *Handle) Insert(key, val uint64) (old uint64, existed bool) {
	return h.h.Insert(key, val)
}

// Delete removes key, returning its value and whether it was present.
func (h *Handle) Delete(key uint64) (old uint64, existed bool) {
	return h.h.Delete(key)
}

// Search returns the value associated with key, if present.
func (h *Handle) Search(key uint64) (val uint64, found bool) {
	return h.h.Search(key)
}

// RangeQuery appends all pairs with lo <= key < hi, in ascending key
// order, to out and returns the extended slice.
func (h *Handle) RangeQuery(lo, hi uint64, out []KV) []KV {
	h.buf = h.h.RangeQuery(lo, hi, h.buf[:0])
	for _, p := range h.buf {
		out = append(out, KV{Key: p.Key, Val: p.Val})
	}
	return out
}

// Help drives one announced helpable-fallback operation (if any) to
// completion on this handle's thread and reports whether it helped; on
// a sharded tree it fans over every shard. Normal operation never
// needs it — blocked threads help automatically — but a chaos harness
// whose fault plan killed an owner after its announcement loops Help
// to drain the orphaned descriptor before final verification. Returns
// false on trees without the helpable fallback.
func (h *Handle) Help() bool {
	if hh, ok := h.h.(dict.Helper); ok {
		return hh.Help()
	}
	return false
}

// RangeAgg returns the aggregate tuple (key sum, count, min, max) of
// the keys in [lo, hi), atomically with respect to concurrent updates.
//
// On an (a,b)-tree it descends transactionally maintained subtree
// aggregates in O(log n), independent of the range size; on the BST it
// walks the range (the O(range) control — see ARCHITECTURE.md). On a
// sharded tree it merges per-shard tuples into a consistent cut, which
// requires AtomicRangeQueries (or RouterAdaptive); other sharded
// configurations return an error.
func (h *Handle) RangeAgg(lo, hi uint64) (Agg, error) {
	ah, ok := h.h.(dict.AggHandle)
	if !ok {
		return Agg{Min: ^uint64(0)}, fmt.Errorf("htmtree: %T does not support aggregate queries", h.h)
	}
	a, err := ah.RangeAgg(lo, hi)
	return Agg{Sum: a.Sum, Count: a.Count, Min: a.Min, Max: a.Max}, err
}

// RangeSum returns the sum and count of the keys in [lo, hi); see
// RangeAgg for the atomicity contract and cost model.
func (h *Handle) RangeSum(lo, hi uint64) (sum, count uint64, err error) {
	a, err := h.RangeAgg(lo, hi)
	return a.Sum, a.Count, err
}

// Count returns the number of keys present. Unlike Tree.KeySum it is
// atomic with respect to concurrent updates (see RangeAgg).
func (h *Handle) Count() (uint64, error) {
	a, err := h.RangeAgg(0, MaxKey+1)
	return a.Count, err
}

// Min returns the smallest key present (ok reports whether the tree
// was non-empty); see RangeAgg for the atomicity contract.
func (h *Handle) Min() (key uint64, ok bool, err error) {
	a, err := h.RangeAgg(0, MaxKey+1)
	return a.Min, a.Count > 0, err
}

// Max returns the largest key present (ok reports whether the tree was
// non-empty); see RangeAgg for the atomicity contract.
func (h *Handle) Max() (key uint64, ok bool, err error) {
	a, err := h.RangeAgg(0, MaxKey+1)
	return a.Max, a.Count > 0, err
}

// AsyncHandle is a per-goroutine asynchronous, batching handle to a
// Tree (see Tree.NewAsyncHandle and Handle.Batch). Operations on
// different keys may be reordered within a batch (execution is sorted
// by key and grouped by shard); operations on the same key keep their
// enqueue order, and every future resolves to the result its operation
// saw at its place in that execution.
type AsyncHandle struct {
	p *batch.Pipeline
}

// Insert enqueues an asynchronous insert. The future resolves to the
// previous value and whether the key already existed.
func (h *AsyncHandle) Insert(key, val uint64) PointFuture {
	return PointFuture{p: h.p.Insert(key, val)}
}

// Delete enqueues an asynchronous delete. The future resolves to the
// removed value and whether the key was present.
func (h *AsyncHandle) Delete(key uint64) PointFuture {
	return PointFuture{p: h.p.Delete(key)}
}

// Search enqueues an asynchronous search. The future resolves to the
// value found and whether the key was present at the operation's place
// in the batch — a search enqueued after an insert of the same key
// sees that insert.
func (h *AsyncHandle) Search(key uint64) PointFuture {
	return PointFuture{p: h.p.Search(key)}
}

// RangeQuery runs an asynchronous range query over [lo, hi). Unless
// the tree was configured with BatchRQNoFlush it first flushes the
// buffered point operations (read-your-writes). The returned future is
// already completed; it exists for OnComplete chaining symmetry.
func (h *AsyncHandle) RangeQuery(lo, hi uint64) RangeFuture {
	return RangeFuture{p: h.p.RangeQuery(lo, hi)}
}

// Flush executes every buffered operation now and completes its
// future. Flushing an empty handle is a no-op.
func (h *AsyncHandle) Flush() { h.p.Flush() }

// Pending returns the number of buffered, not yet executed operations.
func (h *AsyncHandle) Pending() int { return h.p.Pending() }

// PointFuture is the result of an asynchronous Insert, Delete, or
// Search. The zero value is invalid; futures come from AsyncHandle.
type PointFuture struct {
	p *batch.PointPromise
}

// Wait blocks until the operation executed and returns its result —
// (previous value, existed) for Insert and Delete, (value, found) for
// Search. Waiting on a still-buffered operation flushes the owning
// handle first; calling Wait repeatedly returns the same result.
func (f PointFuture) Wait() (val uint64, ok bool) {
	r := f.p.Wait()
	return r.Val, r.OK
}

// Done reports whether the result is available without blocking.
func (f PointFuture) Done() bool { return f.p.Done() }

// OnComplete registers fn to run with the result once the operation
// executes (immediately, on the caller, if it already has). fn runs on
// the flushing goroutine and must not call back into the owning
// asynchronous handle.
func (f PointFuture) OnComplete(fn func(val uint64, ok bool)) {
	f.p.OnComplete(func(r batch.PointResult) { fn(r.Val, r.OK) })
}

// RangeFuture is the result of an asynchronous RangeQuery.
type RangeFuture struct {
	p *batch.RangePromise
}

// Wait returns the query's pairs in ascending key order.
func (f RangeFuture) Wait() []KV {
	pairs := f.p.Wait()
	out := make([]KV, len(pairs))
	for i, p := range pairs {
		out[i] = KV{Key: p.Key, Val: p.Val}
	}
	return out
}

// Done reports whether the result is available without blocking.
func (f RangeFuture) Done() bool { return f.p.Done() }

// OnComplete registers fn to run with the result once the query
// executes; see PointFuture.OnComplete for the callback contract.
func (f RangeFuture) OnComplete(fn func([]KV)) {
	f.p.OnComplete(func(pairs []dict.KV) {
		out := make([]KV, len(pairs))
		for i, p := range pairs {
			out[i] = KV{Key: p.Key, Val: p.Val}
		}
		fn(out)
	})
}

// PathCounts counts events per execution path.
type PathCounts struct {
	Fast, Middle, Fallback uint64
}

// Total sums the three paths.
func (p PathCounts) Total() uint64 { return p.Fast + p.Middle + p.Fallback }

// RangeQueryStats counts the outcomes of atomic cross-shard reads.
type RangeQueryStats struct {
	// Attempts counts validated snapshot attempts (including the
	// successful final attempt of every read), Retries the attempts
	// invalidated by concurrent updates, and Escalations the reads that
	// exhausted the optimistic budget and briefly quiesced their shards.
	Attempts, Retries, Escalations uint64
}

// BatchStats counts batched/asynchronous execution activity. The
// amortization batching exists for reads off directly: an unbatched
// stream pays one router lookup (and, on a rebalancing sharded tree,
// one monitor admission) per operation, so GroupOps/RouterLookups and
// GroupOps/MonitorBrackets are the factors by which batching cut that
// per-operation overhead.
type BatchStats struct {
	// Flushes counts non-empty buffer flushes across the tree's
	// asynchronous handles and BatchedOps the point operations they
	// carried (BatchedOps/Flushes is the realized mean batch size).
	Flushes, BatchedOps uint64
	// SizeFlushes, TimerFlushes, ExplicitFlushes and RangeFlushes split
	// Flushes by trigger: the BatchMaxOps threshold, the BatchMaxDelay
	// timer, an explicit Flush or Wait, and a flushing RangeQuery.
	SizeFlushes, TimerFlushes, ExplicitFlushes, RangeFlushes uint64
	// Groups counts the per-shard groups batches executed as and
	// GroupOps the operations they carried (sharded trees only;
	// GroupOps/Groups is the realized per-shard locality).
	Groups, GroupOps uint64
	// RouterLookups counts routing decisions taken by group execution
	// and MonitorBrackets the shard-level admissions — one per group
	// where unbatched dispatch pays one per op.
	RouterLookups, MonitorBrackets uint64
	// Restarts counts groups re-routed because a live migration swapped
	// the routing table mid-batch (the batch then re-executed its
	// remaining operations under the new table).
	Restarts uint64
}

// PolicyStats counts the retry policy's abort-taxonomy actions.
type PolicyStats struct {
	// Backoffs counts randomized waits taken before conflict retries,
	// FreeRetries the spurious-abort retries granted without consuming
	// attempt budget, CapacitySkips the paths abandoned with budget
	// remaining after a capacity abort, and Demotions the operations
	// that started past the fast path on their site's capacity memory.
	Backoffs, FreeRetries, CapacitySkips, Demotions uint64
	// Helps counts announced fallback operations completed by threads
	// other than (or alongside) their announcer; nonzero only with
	// Config.HelpableFallback.
	Helps uint64
	// BusySkips counts 3-path operations that skipped the fast path
	// because the fallback path was busy when they started, going
	// straight to the middle path.
	BusySkips uint64
}

// AggregateStats counts aggregate-query executions by answer path.
type AggregateStats struct {
	// Fast counts queries answered by the O(log n) transactional descent
	// over maintained subtree aggregates, Walk the queries that fell
	// back to the LLX-validated leaf walk (fallback-path or TLE-locked
	// executions). Always zero on a BST, whose RangeAgg walks the range
	// without touching either counter.
	Fast, Walk uint64
}

// RebalanceStats counts live shard-rebalancing activity (RouterAdaptive).
type RebalanceStats struct {
	// Checks counts imbalance evaluations, Migrations the boundary
	// migrations performed, and KeysMoved the keys moved between shards
	// across all migrations.
	Checks, Migrations, KeysMoved uint64
}

// Stats is a snapshot of a tree's execution statistics: how many
// operations completed on each path (Section 7.2 of the paper) and how
// transactions committed/aborted (Figure 16).
type Stats struct {
	// Ops counts operation completions per path.
	Ops PathCounts
	// TxCommits and TxAborts count transaction outcomes per path.
	TxCommits, TxAborts PathCounts
	// AbortCauses breaks aborts down as "path/cause" -> count.
	AbortCauses map[string]uint64
	// Policy reports the retry policy's actions (all zero under
	// PolicyStatic).
	Policy PolicyStats
	// Range reports atomic cross-shard read outcomes; all zero unless
	// the tree is sharded with AtomicRangeQueries (or RouterAdaptive,
	// which implies the same read validation).
	Range RangeQueryStats
	// Rebalance reports live shard-rebalancing activity; all zero
	// unless the tree is sharded with RouterAdaptive.
	Rebalance RebalanceStats
	// Aggregate reports how aggregate queries (Handle.RangeAgg and
	// friends) were answered on (a,b)-trees.
	Aggregate AggregateStats
	// Batch reports batched/asynchronous execution activity; all zero
	// until an AsyncHandle (or Handle.Batch context) flushes.
	Batch BatchStats
}

// Stats returns a snapshot of the tree's statistics. Safe to call while
// operations run (the snapshot is then approximate).
func (t *Tree) Stats() Stats {
	ops := t.stats.OpStats()
	hs := t.stats.HTMStats()
	s := Stats{
		Ops: PathCounts{Fast: ops.Fast, Middle: ops.Middle, Fallback: ops.Fallback},
		TxCommits: PathCounts{
			Fast:     hs.Commits[htm.PathFast],
			Middle:   hs.Commits[htm.PathMiddle],
			Fallback: hs.Commits[htm.PathFallback],
		},
		TxAborts: PathCounts{
			Fast:     hs.TotalAborts(htm.PathFast),
			Middle:   hs.TotalAborts(htm.PathMiddle),
			Fallback: hs.TotalAborts(htm.PathFallback),
		},
		AbortCauses: make(map[string]uint64),
		Policy: PolicyStats{
			Backoffs:      ops.Policy.Backoffs,
			FreeRetries:   ops.Policy.FreeRetries,
			CapacitySkips: ops.Policy.CapacitySkips,
			Demotions:     ops.Policy.Demotions,
			Helps:         ops.Policy.Helps,
			BusySkips:     ops.Policy.BusySkips,
		},
	}
	for _, p := range []htm.PathKind{htm.PathFast, htm.PathMiddle, htm.PathFallback} {
		for c := htm.CauseExplicit; c <= htm.CauseSpurious; c++ {
			if n := hs.Aborts[p][c]; n > 0 {
				s.AbortCauses[p.String()+"/"+c.String()] = n
			}
		}
	}
	if t.aggStats != nil {
		s.Aggregate.Fast, s.Aggregate.Walk = t.aggStats()
	}
	var bs batch.Stats
	if t.batchCtrs != nil {
		bs = t.batchCtrs.Snapshot()
	}
	s.Batch = BatchStats{
		Flushes:         bs.Flushes,
		BatchedOps:      bs.FlushedOps,
		SizeFlushes:     bs.SizeFlushes,
		TimerFlushes:    bs.TimerFlushes,
		ExplicitFlushes: bs.ExplicitFlushes,
		RangeFlushes:    bs.RangeFlushes,
	}
	if sd, ok := t.d.(*shard.Dict); ok {
		rs := sd.RQStats()
		s.Range = RangeQueryStats{
			Attempts:    rs.Attempts,
			Retries:     rs.Retries,
			Escalations: rs.Escalations,
		}
		rb := sd.RebalanceStats()
		s.Rebalance = RebalanceStats{
			Checks:     rb.Checks,
			Migrations: rb.Migrations,
			KeysMoved:  rb.KeysMoved,
		}
		gb := sd.BatchStats()
		s.Batch.Groups = gb.Groups
		s.Batch.GroupOps = gb.Ops
		s.Batch.RouterLookups = gb.RouterLookups
		s.Batch.MonitorBrackets = gb.MonitorEnters
		s.Batch.Restarts = gb.Restarts
	}
	return s
}
