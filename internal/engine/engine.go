// Package engine implements the execution-path policies of Brown's
// accelerated tree-update-template algorithms (PODC 2017, Sections 1 and
// 5): the original lock-free template (non-htm), transactional lock
// elision (tle), the two 2-path algorithms (with and without concurrency
// between the HTM fast path and the software fallback path), the 3-path
// algorithm that is the paper's contribution, and the standalone
// HTM-SCX algorithm of Section 4 as an ablation.
//
// The engine owns only policy: which body to attempt, how many times,
// when to wait and when to move between paths, and the bookkeeping
// (fallback-presence counter F or SNZI, TLE global lock, per-path
// operation counters). Data structures supply the bodies.
package engine

import (
	"fmt"
	"runtime"
	"runtime/trace"
	"sync"
	"sync/atomic"
	"time"

	"htmtree/internal/ebr"
	"htmtree/internal/fault"
	"htmtree/internal/htm"
	"htmtree/internal/llxscx"
	"htmtree/internal/obs"
	"htmtree/internal/snzi"
)

// Algorithm selects one of the template implementations studied in the
// paper.
type Algorithm uint8

// Template algorithms. The names follow the paper: TwoPathConc is
// "2-path con" (concurrency between fast and fallback paths, so the fast
// path runs instrumented LLX/SCX code); TwoPathNCon is the non-concurrent
// variant (sequential fast path, fallback presence counter F); ThreePath
// is the paper's contribution.
const (
	AlgNonHTM Algorithm = iota + 1
	AlgTLE
	AlgTwoPathConc
	AlgTwoPathNCon
	AlgThreePath
	AlgSCXHTM // Section 4: HTM LLX/SCX primitives, operation structure unchanged
)

// Algorithms lists every algorithm in presentation order.
var Algorithms = []Algorithm{
	AlgNonHTM, AlgTLE, AlgTwoPathConc, AlgTwoPathNCon, AlgThreePath, AlgSCXHTM,
}

// String returns the paper's name for the algorithm.
func (a Algorithm) String() string {
	switch a {
	case AlgNonHTM:
		return "non-htm"
	case AlgTLE:
		return "tle"
	case AlgTwoPathConc:
		return "2-path-con"
	case AlgTwoPathNCon:
		return "2-path-ncon"
	case AlgThreePath:
		return "3-path"
	case AlgSCXHTM:
		return "scx-htm"
	default:
		return fmt.Sprintf("algorithm(%d)", uint8(a))
	}
}

// ParseAlgorithm converts a name produced by Algorithm.String back to the
// algorithm, reporting whether the name was recognized.
func ParseAlgorithm(s string) (Algorithm, bool) {
	for _, a := range Algorithms {
		if a.String() == s {
			return a, true
		}
	}
	return 0, false
}

// Explicit abort codes used by the engine and the data-structure bodies.
const (
	// CodeRetry signals a logical retry: an LLX failed, a record was
	// concurrently finalized, or a validation check failed.
	CodeRetry uint8 = 0x01
	// CodeFallbackBusy signals that a fast-path transaction observed the
	// fallback-presence indicator non-zero.
	CodeFallbackBusy uint8 = 0x02
	// CodeLockHeld signals that a TLE transaction observed the global
	// lock held.
	CodeLockHeld uint8 = 0x03
)

// Default attempt budgets (paper Section 7: 20 attempts for the 2-path
// algorithms and TLE, 10 + 10 for 3-path).
const (
	DefaultAttemptLimit = 20
	DefaultFastLimit    = 10
	DefaultMiddleLimit  = 10
)

// Indicator abstracts the fallback-presence counter F. The paper notes a
// fetch-and-increment object suffices and a scalable non-zero indicator
// (SNZI) can replace it; both are provided.
type Indicator interface {
	// Arrive notes that an operation entered the fallback path and
	// returns the function that retracts this particular arrival.
	Arrive() (depart func())
	// Nonzero reports whether any operation is on the fallback path. A
	// transactional read (tx != nil) subscribes the caller so that a
	// change aborts it (for an SNZI, only 0↔nonzero transitions do).
	Nonzero(tx *htm.Tx) bool
	// Bind associates the indicator's cells with the version clock of
	// the TM whose transactions subscribe to it: arrivals mutate the
	// cells non-transactionally and must advance that clock. The engine
	// binds its indicator (and its monitor's gate) at construction.
	Bind(c *htm.Clock)
}

// counterIndicator is the plain fetch-and-increment implementation.
type counterIndicator struct {
	f htm.Word
}

func (c *counterIndicator) Arrive() func() {
	c.f.Add(1)
	return c.depart
}
func (c *counterIndicator) depart()                 { c.f.Add(^uint64(0)) }
func (c *counterIndicator) Nonzero(tx *htm.Tx) bool { return c.f.Get(tx) != 0 }
func (c *counterIndicator) Bind(clk *htm.Clock)     { c.f.Bind(clk) }

// snziIndicator adapts an SNZI to the Indicator interface.
type snziIndicator struct {
	s *snzi.SNZI
}

// NewSNZIIndicator returns an Indicator backed by a scalable non-zero
// indicator, the alternative to the fetch-and-increment counter the
// paper suggests in Section 5.
func NewSNZIIndicator() Indicator { return &snziIndicator{s: snzi.New()} }

func (si *snziIndicator) Arrive() func() {
	t := si.s.Arrive()
	return func() { si.s.Depart(t) }
}
func (si *snziIndicator) Nonzero(tx *htm.Tx) bool { return si.s.Nonzero(tx) }
func (si *snziIndicator) Bind(c *htm.Clock)       { si.s.Bind(c) }

// Config controls an Engine.
type Config struct {
	// Algorithm selects the template implementation. Required.
	Algorithm Algorithm
	// AttemptLimit is the fast-path budget for TLE and the 2-path
	// algorithms (default 20).
	AttemptLimit int
	// FastLimit and MiddleLimit are the 3-path budgets (default 10 each).
	FastLimit   int
	MiddleLimit int
	// Indicator overrides the fallback-presence indicator (default: a
	// fetch-and-increment counter). Use snzi.New() for the scalable
	// variant.
	Indicator Indicator
	// Monitor, when non-nil, publishes the commit point of every update
	// operation (Op.Update) so an external reader can validate that no
	// update committed during a window: transactional paths bump its
	// version counter inside the operation's transaction, and
	// non-transactional paths bracket the operation with its
	// ingress/egress counters. The sharding layer installs one monitor
	// per shard to make cross-shard range queries atomic.
	Monitor *UpdateMonitor
	// Policy is the retry policy consulted with the htm.Abort after
	// every failed transactional attempt, on every algorithm (default:
	// NewAdaptivePolicy; StaticPolicy restores the cause-blind
	// fixed-budget loops).
	Policy RetryPolicy
	// HelpableFallback replaces AlgTLE's locked fallback path with the
	// helpable lock-free lock protocol (see help.go): operations with a
	// Helpable descriptor are announced before the critical section and
	// any blocked thread drives them to completion instead of spinning
	// behind a possibly preempted owner. Ignored by other algorithms.
	HelpableFallback bool
	// PreemptPoint, when non-nil, is invoked at the most
	// preemption-sensitive point of the fallback path: right after the
	// classic lock acquisition (the baseline's convoy window), or right
	// after the announcement in helpable mode. Tests inject
	// runtime.Gosched here to force the convoy/help schedules.
	//
	// Deprecated: the same seam is fault.PointFallbackOwner on Faults,
	// which additionally supports deterministic triggers, stalls, and
	// permanent owner death. PreemptPoint remains as the zero-setup
	// hook existing tests use.
	PreemptPoint func()
	// Faults, when non-nil, arms the deterministic fault-injection
	// plane at the engine's seams: fault.PointFallbackOwner fires at
	// the PreemptPoint seam above (in helpable mode a Kill effect
	// parks the announced owner forever and helpers must complete the
	// operation — the lock-free progress guarantee under test), and
	// the plan is forwarded to the engine's reclamation domain for
	// fault.PointEBRPin. The HTM and shard layers carry their own
	// plan references; one shared *fault.Plan arms a whole structure.
	Faults *fault.Plan
	// Obs, when non-nil, attaches this engine to a live observability
	// domain (see obs.go in this package): New registers the metric
	// families that read the per-thread counters, and every NewThread
	// gains a flight-recorder thread with sampled latency capture,
	// runtime/trace op regions, and abort/help/acquire events.
	Obs *obs.Node
}

func (c Config) withDefaults() Config {
	if c.AttemptLimit == 0 {
		c.AttemptLimit = DefaultAttemptLimit
	}
	if c.FastLimit == 0 {
		c.FastLimit = DefaultFastLimit
	}
	if c.MiddleLimit == 0 {
		c.MiddleLimit = DefaultMiddleLimit
	}
	if c.Indicator == nil {
		c.Indicator = &counterIndicator{}
	}
	if c.Policy == nil {
		c.Policy = NewAdaptivePolicy()
	}
	return c
}

// Engine executes operations according to one of the template
// algorithms.
type Engine struct {
	cfg Config
	// tle is the TLE global lock word: 0 free, 1 held by a classic
	// locked operation, ≥ 2 held for the helpable descriptor of that
	// generation (see help.go).
	tle     htm.Word
	reclaim *ebr.Manager // epoch domain for the structure's node pools
	// genCtr feeds HelpDesc generations (nextGen).
	genCtr atomic.Uint64
	// helpingPolicy caches whether the retry policy opted into
	// help-while-blocked fast-path waits (FallbackHelper).
	helpingPolicy bool

	mu      sync.Mutex
	threads []*Thread
}

// New creates an engine bound to the version clock of the TM whose
// threads it will run (htm.TM.Clock). The engine's own cells — the TLE
// lock, the fallback-presence indicator, and the cells of the update
// monitor, all of which transactions subscribe to and non-transactional
// paths mutate — join that clock's synchronization domain here. Zero
// fields of cfg select defaults.
func New(cfg Config, clk *htm.Clock) *Engine {
	if cfg.Algorithm == 0 {
		cfg.Algorithm = AlgThreePath
	}
	e := &Engine{cfg: cfg.withDefaults(), reclaim: ebr.New()}
	e.reclaim.SetFaults(e.cfg.Faults)
	if fh, ok := e.cfg.Policy.(FallbackHelper); ok {
		e.helpingPolicy = fh.HelpWhileBlocked()
	}
	e.tle.Bind(clk)
	e.cfg.Indicator.Bind(clk)
	if e.cfg.Monitor != nil {
		e.cfg.Monitor.Bind(clk)
	}
	if e.cfg.Obs != nil {
		e.registerObs(e.cfg.Obs)
	}
	return e
}

// Algorithm returns the engine's algorithm.
func (e *Engine) Algorithm() Algorithm { return e.cfg.Algorithm }

// Thread is the per-goroutine execution context: the HTM thread, the
// tagged-sequence-number source, the reclamation context, and per-path
// operation counters.
type Thread struct {
	// H is the simulated-HTM thread context.
	H *htm.Thread
	// Tags produces the fresh tagged info values HTM-path SCXs write.
	Tags llxscx.TagSource

	eng *Engine
	ops [htm.NumPaths]uint64 // completions indexed by htm.PathKind
	// aborts counts failed transactional attempts per path and cause as
	// seen by the attempt loops; polstats counts the retry policy's
	// actions. Both are written with atomic adds so Stats may read them
	// from a reporting goroutine.
	aborts   [htm.NumPaths][htm.NumCauses]uint64
	polstats PolicyStats
	// fallbackAcq counts fallback critical-section acquisitions (classic
	// TLE lock takes and helpable descriptors driven to completion by
	// their owner), atomically — the observability layer's
	// htmtree_fallback_acquisitions_total family reads it.
	fallbackAcq uint64
	// obs is the thread's flight-recorder context, nil unless the engine
	// was built with Config.Obs.
	obs *obs.ThreadObs
	// site is the fallback policy site for ops built without their own.
	site Site

	// rec is the thread's epoch-based-reclamation context, created by
	// EnableReclaim; Run brackets every operation with its Begin/End so
	// grace periods cover all node references an operation may hold.
	rec *ebr.Thread
	// fastRecycle records whether nodes removed by fast-path commits may
	// be recycled immediately (the Section 9 rule); see EnableReclaim.
	fastRecycle bool

	// gateBypass exempts this thread's update operations from the
	// monitor's quiesce gate and in-flight accounting (commit publication
	// is unaffected). Set on the shard layer's migration handles, whose
	// operations run while the migrator itself holds the gate.
	gateBypass bool

	// helpExec is the structure's fallback-attempt executor for
	// announced descriptors (SetHelpExec); nil disables helping on this
	// thread.
	helpExec func(*HelpDesc)
}

// SetGateBypass exempts the thread's update operations from the update
// monitor's quiesce gate and in-flight accounting. Their commit points
// are still published (version bumps, non-transactional brackets), so
// optimistic readers validate against them as usual. Intended solely
// for the shard layer's key migration, which mutates two shards while
// holding their gates; bypassing threads must be externally serialized
// against gate holders.
func (th *Thread) SetGateBypass(bypass bool) { th.gateBypass = bypass }

// ReclaimReader registers a read-only context in the engine's epoch
// domain, for structure-level walks that run outside any engine thread
// (the sharding layer's consistent KeySum reads a tree while updaters
// run). Bracketing such a walk with the returned thread's Begin/End
// stalls grace periods for its duration, so pooled nodes cannot be
// reused — in particular, internal nodes' plain key/child arrays cannot
// be rewritten — while the walk holds references. The context retires
// nothing; the registration is permanent, so create one per tree, not
// per read.
func (e *Engine) ReclaimReader() *ebr.Thread {
	return e.reclaim.NewThread(func(any) {})
}

// NewThread registers a new engine thread wrapping the given HTM thread.
func (e *Engine) NewThread(h *htm.Thread) *Thread {
	e.mu.Lock()
	defer e.mu.Unlock()
	th := &Thread{H: h, eng: e, site: *NewSite()}
	if e.cfg.Obs != nil {
		th.obs = e.cfg.Obs.NewThread()
	}
	e.threads = append(e.threads, th)
	return th
}

// EnableReclaim creates the thread's epoch-based reclamation context in
// the engine's epoch domain: Run then brackets every operation with the
// ebr Begin/End (so grace periods cover all node references an operation
// holds), and Retire becomes usable. free receives every node whose
// reclamation completed — typically the structure's per-thread pool Put.
//
// nonTxReaders declares that the structure reads nodes outside both
// transactions and the fallback path's LLX protocol — the Section 8
// searches-outside-transactions optimization. Such readers do not abort
// on recycled cells, so immediate fast-path recycling is unsound and
// Retire falls back to grace periods for every node.
func (th *Thread) EnableReclaim(free func(any), nonTxReaders bool) {
	th.rec = th.eng.reclaim.NewThread(free)
	// The Section 9 immediate-recycle rule holds for nodes removed by
	// fast-path commits exactly when every thread that could still hold a
	// reference runs transactionally: the fast path of 3-path and
	// 2-path-ncon excludes the fallback path via the presence indicator,
	// and TLE's elided path excludes the locked path via the lock
	// subscription. 2-path-con's "fast" path is the instrumented body
	// running concurrently with fallback-path readers, and non-htm and
	// scx-htm commit removals non-transactionally, so none of them
	// qualifies.
	switch th.eng.cfg.Algorithm {
	case AlgThreePath, AlgTwoPathNCon:
		th.fastRecycle = !nonTxReaders
	case AlgTLE:
		// Under the helpable fallback, stale helpers may still be
		// reading nodes non-transactionally after the critical section's
		// derived release lets fast-path commits resume, so immediate
		// recycling of fast-path removals is unsound there.
		th.fastRecycle = !nonTxReaders && !th.eng.cfg.HelpableFallback
	default:
		th.fastRecycle = false
	}
}

// Retire hands a node removed by a completed operation to the thread's
// reclamation context, or reports immediate=true when the caller may
// recycle it at once. p is the path the removing operation committed
// on; fastOK asserts that every field of x mutated on reuse is a
// transactional cell (so a stale transactional reader of a recycled x
// aborts rather than observing recycled state — structures pass false
// for nodes carrying reuse-mutable plain fields, which must always wait
// out a grace period). Nodes removed by fast-path commits recycle
// immediately when the algorithm's path exclusion allows it (the
// Section 9 rule; see EnableReclaim); everything else waits two epochs.
func (th *Thread) Retire(p htm.PathKind, fastOK bool, x any) (immediate bool) {
	if fastOK && th.fastRecycle && p == htm.PathFast {
		return true
	}
	th.rec.Retire(x)
	return false
}

// AbortCounts breaks failed transactional attempts down by execution
// path and abort cause (path index 0 is unused, as in htm.Stats).
type AbortCounts [htm.NumPaths][htm.NumCauses]uint64

// Merge adds another snapshot into a.
func (a *AbortCounts) Merge(o AbortCounts) {
	for p := 0; p < htm.NumPaths; p++ {
		for c := 0; c < htm.NumCauses; c++ {
			a[p][c] += o[p][c]
		}
	}
}

// On returns the abort count for one path and cause.
func (a *AbortCounts) On(p htm.PathKind, c htm.AbortCause) uint64 { return a[p][c] }

// PathTotal returns the aborts on path p across all causes.
func (a *AbortCounts) PathTotal(p htm.PathKind) uint64 {
	var n uint64
	for c := 0; c < htm.NumCauses; c++ {
		n += a[p][c]
	}
	return n
}

// Total returns the aborts across all paths and causes.
func (a *AbortCounts) Total() uint64 {
	var n uint64
	for p := 1; p < htm.NumPaths; p++ {
		n += a.PathTotal(htm.PathKind(p))
	}
	return n
}

// OpStats counts operation completions per execution path, failed
// transactional attempts per path and cause, and retry-policy actions.
type OpStats struct {
	Fast     uint64
	Middle   uint64
	Fallback uint64
	Aborts   AbortCounts
	Policy   PolicyStats
}

// Total returns the total number of completed operations.
func (s OpStats) Total() uint64 { return s.Fast + s.Middle + s.Fallback }

// Merge adds another snapshot into s (the shard layer's aggregation).
func (s *OpStats) Merge(o OpStats) {
	s.Fast += o.Fast
	s.Middle += o.Middle
	s.Fallback += o.Fallback
	s.Aborts.Merge(o.Aborts)
	s.Policy.Merge(o.Policy)
}

// Stats sums the per-path operation completions, per-cause abort counts
// and policy actions over all threads. Safe to call while threads run
// (the snapshot is then approximate).
func (e *Engine) Stats() OpStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	var s OpStats
	for _, th := range e.threads {
		s.Fast += atomic.LoadUint64(&th.ops[htm.PathFast])
		s.Middle += atomic.LoadUint64(&th.ops[htm.PathMiddle])
		s.Fallback += atomic.LoadUint64(&th.ops[htm.PathFallback])
		for p := 0; p < htm.NumPaths; p++ {
			for c := 0; c < htm.NumCauses; c++ {
				s.Aborts[p][c] += atomic.LoadUint64(&th.aborts[p][c])
			}
		}
		s.Policy.addAtomic(&th.polstats)
	}
	return s
}

func (th *Thread) completed(p htm.PathKind) {
	atomic.AddUint64(&th.ops[p], 1)
}

func (th *Thread) noteAbort(p htm.PathKind, c htm.AbortCause) {
	atomic.AddUint64(&th.aborts[p][c], 1)
}

// Op supplies the bodies of one data-structure operation. Bodies are
// invoked repeatedly (one invocation per attempt) and must re-read all
// state from the top each time; results are delivered through variables
// the closures capture.
type Op struct {
	// Fast is the uninstrumented sequential body run inside a
	// transaction (used by TLE, 2-path-ncon and 3-path). It signals a
	// logical retry by calling tx.Abort(CodeRetry); completing normally
	// commits the operation.
	Fast func(tx *htm.Tx)
	// Middle is the instrumented template body (transactional LLX +
	// SCXInTx) run inside a transaction (used as 3-path's middle path
	// and as 2-path-con's fast path).
	Middle func(tx *htm.Tx)
	// Fallback is the original lock-free template body (LLXO/SCXO). It
	// returns false to request a retry.
	Fallback func() bool
	// Locked is the sequential body run under the TLE global lock; it
	// must always complete. Only used by AlgTLE.
	Locked func()
	// SCXHTM is the Section 4 body: template structure with
	// non-transactional LLX and the standalone HTM SCX when useHTM is
	// true, or SCXO when false. It returns false to request a retry.
	// Only used by AlgSCXHTM.
	SCXHTM func(useHTM bool) bool
	// Update marks operations that may change the dictionary's logical
	// content (inserts and deletes, but not searches, range queries, or
	// content-preserving rebalancing steps). When the engine has a
	// Monitor, update operations publish their commit through it and
	// wait at the quiesce gate.
	Update bool
	// Site carries the retry policy's per-call-site state (capacity
	// memory, backoff PRNG stream). Handles that build an Op once per
	// operation type should give it its own NewSite; nil shares the
	// engine thread's site across all of the thread's unsited ops.
	Site *Site
	// Helpable, when non-nil, lets the operation's fallback critical
	// section run through the helpable lock-free lock protocol under
	// AlgTLE with Config.HelpableFallback (see help.go). Operations
	// without it (reads, rebalancing steps) fall back to the classic
	// locked path.
	Helpable *HelpableOp
	// prepared records that Fast and Middle already include the
	// monitor's commit bump (Thread.PrepareOp), so Run need not wrap
	// them per call.
	prepared bool
}

// PrepareOp returns op with its transactional bodies pre-extended to
// bump the engine's update monitor at commit, so Run adds no
// per-operation closure allocations on monitored paths. Handles should
// call it once when they construct their update ops; Run falls back to
// wrapping unprepared ops on the fly. Without a monitor (or for
// non-update ops) op is returned unchanged.
func (th *Thread) PrepareOp(op Op) Op {
	mon := th.eng.cfg.Monitor
	if mon == nil || !op.Update || op.prepared {
		return op
	}
	if f := op.Fast; f != nil {
		op.Fast = func(tx *htm.Tx) {
			f(tx)
			mon.bumpTx(tx)
		}
	}
	if m := op.Middle; m != nil {
		op.Middle = func(tx *htm.Tx) {
			m(tx)
			mon.bumpTx(tx)
		}
	}
	op.prepared = true
	return op
}

// Run executes op under the engine's algorithm and returns the path the
// operation completed on.
//
// When the engine has an UpdateMonitor and op is an update, Run
// publishes the operation's commit point through the monitor:
// transactional paths bump the monitor's version counter inside the
// operation's own transaction (pre-wrapped by PrepareOp, or wrapped
// here for unprepared ops), non-transactional paths (the lock-free
// fallback, TLE's locked body, scx-htm) are bracketed by its
// ingress/egress counters, and the operation registers as in flight and
// waits at the monitor's quiesce gate before starting (threads with
// SetGateBypass skip the gate and the in-flight accounting, not the
// commit publication).
//
// On an observed engine (Config.Obs) Run additionally brackets the
// operation with a runtime/trace user region, captures every
// LatencySample-th operation's latency into the thread's histogram, and
// records a sampled completion event — all without allocating and
// without defers (a defer closing over locals allocates, which would
// break the steady-state 0 allocs/op gate).
func (th *Thread) Run(op Op) htm.PathKind {
	so := th.obs
	if so == nil {
		return th.run(op)
	}
	reg := obs.StartOpRegion()
	if so.MaybeTime() {
		t0 := time.Now()
		p := th.run(op)
		so.RecordLatency(uint64(time.Since(t0)))
		so.Event(obs.EvOp, p, htm.CauseNone, 0, 0)
		obs.EndRegion(reg)
		return p
	}
	p := th.run(op)
	so.Event(obs.EvOp, p, htm.CauseNone, 0, 0)
	obs.EndRegion(reg)
	return p
}

func (th *Thread) run(op Op) htm.PathKind {
	e := th.eng
	if th.rec != nil {
		// Bracket the whole operation as an ebr critical section: every
		// node reference any path of the operation obtains is covered by
		// the announced epoch until End, which is what makes grace-period
		// retirement (and hence pooled-node reuse) sound.
		th.rec.Begin()
		defer th.rec.End()
	}
	mon := e.cfg.Monitor
	if !op.Update {
		mon = nil
	}
	if mon != nil {
		if !th.gateBypass {
			mon.enter()
			defer mon.exit()
		}
		op = th.PrepareOp(op) // no-op for ops prepared at construction
	}
	switch e.cfg.Algorithm {
	case AlgNonHTM:
		th.runFallbackLoop(op, nil, mon)
		return htm.PathFallback

	case AlgTLE:
		return th.runTLE(op, mon)

	case AlgTwoPathConc:
		// Fast path: the whole operation in one transaction using the
		// HTM-based LLX and SCX; it may run concurrently with the
		// fallback path, so no presence indicator is needed.
		site := op.policySite(th)
		if !th.skipFast(site) &&
			th.runPath(site, htm.PathFast, e.cfg.AttemptLimit, false, nil, op.Middle) {
			th.completed(htm.PathFast)
			return htm.PathFast
		}
		th.runFallbackLoop(op, nil, mon)
		return htm.PathFallback

	case AlgTwoPathNCon:
		ind := e.cfg.Indicator
		site := op.policySite(th)
		// Wait for the fallback path to empty before each attempt (this
		// waiting is the 2-path-ncon bottleneck the paper highlights).
		if !th.skipFast(site) && th.runPath(site, htm.PathFast, e.cfg.AttemptLimit, false,
			func() { waitWhile(func() bool { return ind.Nonzero(nil) }) },
			func(tx *htm.Tx) {
				if ind.Nonzero(tx) {
					tx.Abort(CodeFallbackBusy)
				}
				op.Fast(tx)
			}) {
			th.completed(htm.PathFast)
			return htm.PathFast
		}
		th.runFallbackLoop(op, ind, mon)
		return htm.PathFallback

	case AlgThreePath:
		ind := e.cfg.Indicator
		site := op.policySite(th)
		// Fast path: only entered when F reads zero outside a
		// transaction (checking the lock before __TM_begin: an attempt
		// begun while F != 0 is doomed to an explicit abort). Once
		// inside, move to the middle path when the policy gives up on
		// the path (a capacity abort under the adaptive policy — the
		// transaction cannot fit; hardware reports this via the "retry"
		// hint bit being clear), immediately if the fallback path
		// becomes busy (the body's subscribed check), or after FastLimit
		// attempts.
		if !th.skipFast(site) && !th.fallbackBusy(ind) && th.runPath(site, htm.PathFast, e.cfg.FastLimit, true,
			nil,
			func(tx *htm.Tx) {
				if ind.Nonzero(tx) {
					tx.Abort(CodeFallbackBusy)
				}
				op.Fast(tx)
			}) {
			th.completed(htm.PathFast)
			return htm.PathFast
		}
		if th.runPath(site, htm.PathMiddle, e.cfg.MiddleLimit, false, nil, op.Middle) {
			th.completed(htm.PathMiddle)
			return htm.PathMiddle
		}
		th.runFallbackLoop(op, ind, mon)
		return htm.PathFallback

	case AlgSCXHTM:
		// The standalone HTM SCX commits inside op.SCXHTM where the
		// engine cannot reach, so both its modes count as
		// non-transactional for the monitor.
		if mon != nil {
			mon.beginNonTx()
			defer mon.endNonTx()
		}
		for i := 0; i < e.cfg.AttemptLimit; i++ {
			if op.SCXHTM(true) {
				th.completed(htm.PathFast)
				return htm.PathFast
			}
		}
		for !op.SCXHTM(false) {
		}
		th.completed(htm.PathFallback)
		return htm.PathFallback

	default:
		panic(fmt.Sprintf("engine: unknown algorithm %d", e.cfg.Algorithm))
	}
}

// runTLE implements transactional lock elision: the fast path subscribes
// to the global lock and aborts while it is held; when the retry policy
// exhausts the AttemptLimit budget the operation acquires the lock and
// runs the sequential body. Classic TLE is deadlock-free but not
// lock-free; with Config.HelpableFallback, update operations instead
// announce a descriptor and run the helpable lock-free lock protocol
// (help.go), and every wait on the lock word helps the announced
// operation along.
func (th *Thread) runTLE(op Op, mon *UpdateMonitor) htm.PathKind {
	e := th.eng
	site := op.policySite(th)
	helpable := e.cfg.HelpableFallback
	preWait := func() { waitWhile(func() bool { return e.tle.Get(nil) != 0 }) }
	if helpable && e.helpingPolicy {
		preWait = th.helpWait
	}
	if !th.skipFast(site) && th.runPath(site, htm.PathFast, e.cfg.AttemptLimit, false,
		preWait,
		func(tx *htm.Tx) {
			if e.tle.Get(tx) != 0 {
				tx.Abort(CodeLockHeld)
			}
			op.Fast(tx)
		}) {
		th.completed(htm.PathFast)
		return htm.PathFast
	}
	if helpable && op.Helpable != nil && th.helpExec != nil {
		th.runHelpableFallback(op, mon)
		th.completed(htm.PathFallback)
		return htm.PathFallback
	}
	so := th.obs
	var freg *trace.Region
	if so != nil {
		freg = obs.StartFallbackRegion()
	}
	for !e.tle.CAS(nil, 0, 1) {
		// In helpable mode a blocked classic acquirer still helps the
		// announced operation — required for the protocol's progress
		// argument, since the word stays held until the operation is
		// done.
		if helpable && th.H.Help() {
			atomic.AddUint64(&th.polstats.Helps, 1)
			if so != nil {
				so.RareEvent(obs.EvHelp, htm.PathFallback, htm.CauseNone, 0, 0)
			}
			continue
		}
		runtime.Gosched()
	}
	atomic.AddUint64(&th.fallbackAcq, 1)
	if so != nil {
		// Generation 1 marks the classic (non-helpable) acquisition.
		so.RareEvent(obs.EvAcquire, htm.PathFallback, htm.CauseNone, 1, 0)
		obs.EndRegion(freg)
	}
	if e.cfg.PreemptPoint != nil {
		e.cfg.PreemptPoint()
	}
	// Owner-fault seam: a Stall here models the classic convoy (every
	// thread blocked behind a descheduled lock holder). Kill is not
	// meaningful on this path — a dead classic owner wedges the engine
	// by design, which is exactly the weakness the helpable fallback
	// removes.
	e.cfg.Faults.Hit(fault.PointFallbackOwner)
	func() {
		// Release with defer, like the monitor bracket below: a panic
		// out of the locked body must not strand the global lock, which
		// would wedge every thread of the engine forever (elided
		// attempts subscribe to it and the locked path spins on it).
		defer e.tle.Set(nil, 0)
		// Bracket with defer, like runFallbackLoop: a panic out of the
		// locked body must not strand the ingress counter (which would
		// wedge every future Sample and Quiesce on this monitor).
		if mon != nil {
			mon.beginNonTx()
			defer mon.endNonTx()
		}
		op.Locked()
	}()
	th.completed(htm.PathFallback)
	return htm.PathFallback
}

// policySite resolves the Site the retry policy adapts on for this
// operation: the op's own, or the thread's shared site.
func (op *Op) policySite(th *Thread) *Site {
	if op.Site != nil {
		return op.Site
	}
	return &th.site
}

// skipFast asks the policy whether this operation should start past the
// fast path, counting the demotion when it says yes.
func (th *Thread) skipFast(site *Site) bool {
	if !th.eng.cfg.Policy.SkipFast(site) {
		return false
	}
	atomic.AddUint64(&th.polstats.Demotions, 1)
	return true
}

// fallbackBusy reads the fallback-presence indicator outside any
// transaction and, when it is nonzero, counts the fast path as skipped:
// 3-path then goes straight to the middle path instead of beginning a
// fast transaction whose subscribed check would abort it.
func (th *Thread) fallbackBusy(ind Indicator) bool {
	if !ind.Nonzero(nil) {
		return false
	}
	atomic.AddUint64(&th.polstats.BusySkips, 1)
	return true
}

// runPath drives one execution path's attempt loop under the engine's
// retry policy, reporting whether an attempt committed. budget bounds
// the budgeted attempts (the policy may grant bounded free retries on
// top); preWait, when non-nil, runs before every attempt (TLE's lock
// wait, 2-path-ncon's indicator wait); busyBreak abandons the path
// immediately on an explicit CodeFallbackBusy abort (the 3-path fast
// loop's reaction to a busy fallback path, which is the algorithm's
// structure rather than retry policy).
func (th *Thread) runPath(site *Site, path htm.PathKind, budget int, busyBreak bool,
	preWait func(), body func(tx *htm.Tx)) bool {
	pol := th.eng.cfg.Policy
	free := 0
	for used := 0; used < budget; {
		if preWait != nil {
			preWait()
		}
		ok, ab := th.H.Atomic(path, body)
		if ok {
			if path == htm.PathFast {
				site.noteFastCommit()
			}
			return true
		}
		th.noteAbort(path, ab.Cause)
		if so := th.obs; so != nil {
			so.Event(obs.EvAbort, path, ab.Cause, site.id, uint64(ab.Code))
		}
		if ab.Cause == htm.CauseCapacity && path == htm.PathFast {
			site.noteCapacity()
		}
		if busyBreak && ab.Cause == htm.CauseExplicit && ab.Code == CodeFallbackBusy {
			return false
		}
		switch d := pol.AfterAbort(site, path, ab, used, free); d.Action {
		case ActionNextPath:
			atomic.AddUint64(&th.polstats.CapacitySkips, 1)
			return false
		case ActionFreeRetry:
			free++
			atomic.AddUint64(&th.polstats.FreeRetries, 1)
			if d.Backoff > 0 {
				atomic.AddUint64(&th.polstats.Backoffs, 1)
				backoffSpin(d.Backoff)
			}
		default:
			used++
			if d.Backoff > 0 {
				atomic.AddUint64(&th.polstats.Backoffs, 1)
				backoffSpin(d.Backoff)
			}
		}
	}
	return false
}

// runFallbackLoop runs the lock-free fallback body to completion,
// bracketing it with the presence indicator when one is in use and with
// the update monitor's ingress/egress counters when the operation is a
// monitored update (the fallback's SCX commits non-transactionally, so
// the bracket is how its commit point is published).
func (th *Thread) runFallbackLoop(op Op, ind Indicator, mon *UpdateMonitor) {
	if ind != nil {
		depart := ind.Arrive()
		defer depart()
	}
	if mon != nil {
		mon.beginNonTx()
		defer mon.endNonTx()
	}
	for !op.Fallback() {
	}
	th.completed(htm.PathFallback)
}

// waitWhile spins (yielding) while cond holds.
func waitWhile(cond func() bool) {
	for i := 0; cond(); i++ {
		if i%16 == 15 {
			runtime.Gosched()
		}
	}
}
