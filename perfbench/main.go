// Command perfbench is the repository benchmark: two closed-loop clients
// drive one workload through the public htmtree API for a fixed window,
// every result is checked, and the run prints its metrics. With -trace 1
// it instead reports per-layer counts, a timed ladder of the layers an
// operation passes through, and the cost of its own tracing.
//
// Run it through run.py, which builds it from source:
//
//	python3 perfbench/run.py --workload bst-light --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"htmtree"
)

// Run facts fixed by the benchmark (recorded in every result). Set-up
// repeats at least setupReps times and then until setupBudget is spent
// (at most setupMaxReps times): a set-up of a few milliseconds speeds up
// over its first repetitions and moves with second-scale host noise, so
// its median needs many repetitions spread over seconds.
const (
	warmup       = 2 * time.Second
	setupReps    = 3
	setupMaxReps = 400
	setupBudget  = 2 * time.Second
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	commit   string // git commit, or "unknown" outside a repository
	source   string // digest of the sources the binary was built from
	outDir   string // where the span file goes; empty writes none
	// warm, reps and inject are fixed for the command line; the
	// negative-control tests shorten the first two and set inject to
	// corrupt one kind of result after the call and before its check.
	warm   time.Duration
	reps   int
	inject string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the metrics an untraced run reports on its last line;
// perLayer those of a traced run. BENCHMARK.json names the same sets.
var endToEnd = []string{"point_ops_s", "point_p50_us", "point_p99_us", "setup_s"}

var perLayer = func() []string {
	names := []string{
		"htm.commits_per_op", "htm.commit_ratio",
		"htm.aborts_per_op.conflict", "htm.aborts_per_op.capacity",
		"htm.aborts_per_op.explicit", "htm.aborts_per_op.spurious",
		"engine.fast_frac", "engine.middle_frac", "engine.fallback_frac",
		"engine.backoffs_per_op", "engine.capacity_skips_per_op", "engine.demotions_per_op",
		"abtree.agg_fast_frac",
		"shard.rq_attempts_per_query", "shard.rq_retries_per_query", "shard.rq_escalations_per_query",
		"batch.ops_per_flush", "batch.ops_per_group", "batch.router_lookups_per_op",
		"trace.point_ops_s", "trace.untraced_point_ops_s", "trace.overhead_ops_s", "trace.overhead_frac",
	}
	for _, n := range []string{"htm.tx", "htm.abort", "engine.run", "engine.self", "tree.op", "tree.self",
		"tree.rq", "shard.op", "shard.self", "htmtree.op", "htmtree.self", "batch.op", "batch.self",
		"obs.op", "obs.self"} {
		names = append(names, n+"_ns", n+"_ns.iqr")
	}
	return names
}()

func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_ns"), strings.HasSuffix(name, "_ns.iqr"):
		return "ns"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "ops_s"):
		return "ops/s"
	case name == "setup_s":
		return "s"
	case name == "heap_bytes_per_key":
		return "B"
	case name == "allocs_per_op":
		return "allocs/op"
	case strings.Contains(name, "_per_"):
		per, _, _ := strings.Cut(name[strings.LastIndex(name, "_per_")+len("_per_"):], ".")
		return "count/" + per
	default:
		return "ratio"
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one benchmark run and returns the exit code: 0 when every
// check passed, 1 when a check failed or the run could not complete, 2
// on bad arguments.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	opts := options{warm: warmup, reps: setupReps}
	var trace int
	fs.StringVar(&opts.workload, "workload", "", "workload name")
	fs.Uint64Var(&opts.seed, "seed", 1, "input seed")
	fs.IntVar(&opts.seconds, "seconds", 10, "measured window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 for the traced per-layer run")
	fs.StringVar(&opts.commit, "commit", "unknown", "commit the binary was built from")
	fs.StringVar(&opts.source, "source", "unknown", "digest of the built sources")
	fs.StringVar(&opts.outDir, "out-dir", "", "directory for the span file of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := findWorkload(opts.workload); !ok || opts.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %s), -seconds >= 1, -trace 0|1\n", workloadNames())
		return 2
	}
	opts.trace = trace == 1
	return execute(opts, stdout, stderr)
}

// execute runs the benchmark and prints its result line last.
func execute(opts options, stdout, stderr io.Writer) int {
	res, err := bench(opts, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintln(stderr, "perfbench: correctness check failed")
		return 1
	}
	return 0
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// report is the run's full record, printed as one JSON line before the
// result line.
type report struct {
	Workload string             `json:"workload"`
	Facts    map[string]any     `json:"facts"`
	Metrics  map[string]float64 `json:"metrics"`
	Checks   map[string]string  `json:"checks"`
}

func bench(opts options, stdout io.Writer) (result, error) {
	w, _ := findWorkload(opts.workload)
	if err := checkClients(len(w.roles), runtime.NumCPU()); err != nil {
		return result{}, err
	}
	base := time.Now()
	reps, budget := opts.reps, setupBudget.Seconds()
	if opts.trace {
		reps, budget = 1, 0 // a traced run reports no setup time
	}
	var tree *htmtree.Tree
	var psum, pcount uint64
	var setupSecs []float64
	for spent := 0.0; len(setupSecs) < reps || (spent < budget && len(setupSecs) < setupMaxReps); {
		tree = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if tree, err = w.newTree(w.observe); err != nil {
			return result{}, err
		}
		psum, pcount = prefill(tree.NewHandle(), w, opts.seed)
		setupSecs = append(setupSecs, time.Since(t0).Seconds())
		spent += setupSecs[len(setupSecs)-1]
	}

	// An untraced window is kept as one-second segments only to record
	// how the rate moved; every figure is over the whole window, because
	// this host switches between speed regimes for seconds at a time and
	// a median over segments would flip between regimes from run to run.
	window := time.Duration(opts.seconds) * time.Second
	segs := make([]segment, opts.seconds)
	for i := range segs {
		segs[i].dur = time.Second
	}
	if opts.trace {
		q := window / 4
		segs = []segment{{q, true}, {q, false}, {q, false}, {q, true}}
	}
	wr := runWindow(tree, w, opts.seed, base, opts.warm, segs, opts.inject)

	// A failed end-of-run check counts as one failed operation (of two
	// attempted), so it shows in failed_ops_frac as well as in the exit.
	checks := map[string]string{}
	attempted, failed := wr.attempted+2, wr.failed
	sum, count := tree.KeySum()
	if sum != psum+wr.sum || count != pcount+wr.count {
		checks["key_sum"] = fmt.Sprintf("tree has sum %d count %d, clients expect sum %d count %d",
			sum, count, psum+wr.sum, pcount+wr.count)
		failed++
	}
	if err := tree.CheckInvariants(); err != nil {
		checks["invariants"] = err.Error()
		failed++
	}
	if wr.failed > 0 {
		checks["per_op"] = fmt.Sprintf("%d operation results failed their check", wr.failed)
	}

	var pointOps, queryOps uint64
	for i := range segs {
		pointOps += wr.pointOps[i]
		queryOps += wr.queryOps[i]
	}
	m := map[string]float64{}
	facts := map[string]any{
		"commit": opts.commit, "source": opts.source, "go_version": runtime.Version(),
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "clients": len(w.roles),
		"seed": opts.seed, "window_s": window.Seconds(), "warmup_s": opts.warm.Seconds(),
		"input_digest": streamDigest(w, opts.seed), "keys": w.keys, "shards": w.shards,
		"point_samples": wr.point.n, "point_samples_beyond_p99": wr.point.beyond,
		"query_samples": wr.query.n, "query_samples_beyond_p99": wr.query.beyond,
	}
	if !opts.trace {
		q1, _, q3 := quartiles(setupSecs)
		facts["setup_reps"], facts["setup_s_q1"], facts["setup_s_q3"] = len(setupSecs), q1, q3
		secs := 0.0
		for _, d := range wr.segSecs {
			secs += d
		}
		m["point_ops_s"], m["query_ops_s"] = float64(pointOps)/secs, float64(queryOps)/secs
		m["point_p50_us"], m["point_p99_us"] = wr.point.p50, wr.point.p99
		m["query_p50_us"], m["query_p99_us"] = wr.query.p50, wr.query.p99
		facts["point_ops_s_per_segment"] = segRates(wr.pointOps, wr.segSecs)
		m["setup_s"] = median(setupSecs)
		m["allocs_per_op"] = ratio(wr.mallocs, pointOps+queryOps)
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		m["heap_bytes_per_key"] = ratio(ms.HeapAlloc, count)
		runtime.KeepAlive(tree)
	} else {
		layerCounts(m, wr.before, wr.after, pointOps+queryOps, queryOps)
		var tOps, uOps uint64
		var tSecs, uSecs float64
		for i, s := range segs {
			if s.traced {
				tOps, tSecs = tOps+wr.pointOps[i], tSecs+wr.segSecs[i]
			} else {
				uOps, uSecs = uOps+wr.pointOps[i], uSecs+wr.segSecs[i]
			}
		}
		traced, untraced := float64(tOps)/tSecs, float64(uOps)/uSecs
		m["trace.point_ops_s"], m["trace.untraced_point_ops_s"] = traced, untraced
		m["trace.overhead_ops_s"] = traced - untraced
		m["trace.overhead_frac"] = (traced - untraced) / untraced

		lrec := newRecorder(base, len(w.roles), spanCap)
		lr, err := ladderOn(w, opts.seed, tree, lrec)
		if err != nil {
			return result{}, err
		}
		for k, v := range lr.metrics {
			m[k] = v
		}
		attempted += lr.attempted
		failed += lr.failed
		if lr.failed > 0 {
			checks["ladder"] = fmt.Sprintf("%d ladder results failed their check", lr.failed)
		}
		recs := append(wr.recs, lrec)
		spans, dropped := 0, 0
		for _, r := range recs {
			spans += len(r.spans)
			dropped += r.dropped
		}
		facts["spans"], facts["spans_dropped"], facts["span_sample"] = spans, dropped, fmt.Sprintf("1/%d point ops, 1/%d queries, 1/%d batch groups, every ladder rung", spanEvery, querySpanEvery, groupSpanEvery)
		facts["ladder_rounds"] = ladderRounds
		if opts.outDir != "" {
			path := filepath.Join(opts.outDir, "spans-"+w.name+".jsonl")
			if err := writeSpans(path, recs); err != nil {
				return result{}, err
			}
			facts["span_file"] = path
		}
	}
	m["failed_ops_frac"] = ratio(failed, attempted)

	rep := report{Workload: w.name, Facts: facts, Metrics: m, Checks: checks}
	printHuman(stdout, rep)
	line, err := json.Marshal(map[string]report{"report": rep})
	if err != nil {
		return result{}, err
	}
	fmt.Fprintln(stdout, string(line))

	res := result{Correct: len(checks) == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	names := endToEnd
	if opts.trace {
		names = perLayer
	}
	for _, n := range names {
		res.Metrics[n] = metric{Value: m[n], Unit: unitOf(n)}
	}
	return res, nil
}

func segRates(ops []uint64, secs []float64) []float64 {
	r := make([]float64, len(ops))
	for i := range ops {
		r[i] = float64(ops[i]) / secs[i]
	}
	return r
}

// checkClients refuses more closed-loop clients than CPUs: a client
// waiting for a CPU would measure the scheduler, not the tree.
func checkClients(clients, nproc int) error {
	if clients > nproc {
		return fmt.Errorf("refusing to start %d clients on %d CPUs", clients, nproc)
	}
	return nil
}

// ladderOn builds the ladder's twins around the workload tree (which
// serves as the observed or the plain public tree, whichever it is) and
// runs the ladder.
func ladderOn(w workload, seed uint64, tree *htmtree.Tree, rec *recorder) (ladderResult, error) {
	other, err := w.newTree(!w.observe)
	if err != nil {
		return ladderResult{}, err
	}
	prefill(other.NewHandle(), w, seed)
	plain, observed := tree, other
	if w.observe {
		plain, observed = other, tree
	}
	twin, err := newTwin(w)
	if err != nil {
		return ladderResult{}, err
	}
	prefill(twin.NewHandle(), w, seed)
	return runLadder(w, seed, plain, observed, twin, rec), nil
}

// layerCounts adds the per-layer counts of the window's Tree.Stats delta.
func layerCounts(m map[string]float64, b, a htmtree.Stats, ops, queries uint64) {
	commits := a.TxCommits.Total() - b.TxCommits.Total()
	aborts := a.TxAborts.Total() - b.TxAborts.Total()
	m["htm.commits_per_op"] = ratio(commits, ops)
	m["htm.commit_ratio"] = ratio(commits, commits+aborts)
	for _, cause := range []string{"conflict", "capacity", "explicit", "spurious"} {
		var n uint64
		for k, v := range a.AbortCauses {
			if strings.HasSuffix(k, "/"+cause) {
				n += v - b.AbortCauses[k]
			}
		}
		m["htm.aborts_per_op."+cause] = ratio(n, ops)
	}
	done := a.Ops.Total() - b.Ops.Total()
	m["engine.fast_frac"] = ratio(a.Ops.Fast-b.Ops.Fast, done)
	m["engine.middle_frac"] = ratio(a.Ops.Middle-b.Ops.Middle, done)
	m["engine.fallback_frac"] = ratio(a.Ops.Fallback-b.Ops.Fallback, done)
	m["engine.backoffs_per_op"] = ratio(a.Policy.Backoffs-b.Policy.Backoffs, ops)
	m["engine.capacity_skips_per_op"] = ratio(a.Policy.CapacitySkips-b.Policy.CapacitySkips, ops)
	m["engine.demotions_per_op"] = ratio(a.Policy.Demotions-b.Policy.Demotions, ops)
	fast := a.Aggregate.Fast - b.Aggregate.Fast
	m["abtree.agg_fast_frac"] = ratio(fast, fast+a.Aggregate.Walk-b.Aggregate.Walk)
	m["shard.rq_attempts_per_query"] = ratio(a.Range.Attempts-b.Range.Attempts, queries)
	m["shard.rq_retries_per_query"] = ratio(a.Range.Retries-b.Range.Retries, queries)
	m["shard.rq_escalations_per_query"] = ratio(a.Range.Escalations-b.Range.Escalations, queries)
	batched := a.Batch.BatchedOps - b.Batch.BatchedOps
	m["batch.ops_per_flush"] = ratio(batched, a.Batch.Flushes-b.Batch.Flushes)
	m["batch.ops_per_group"] = ratio(a.Batch.GroupOps-b.Batch.GroupOps, a.Batch.Groups-b.Batch.Groups)
	m["batch.router_lookups_per_op"] = ratio(a.Batch.RouterLookups-b.Batch.RouterLookups, batched)
}

// printHuman prints every metric by name with its unit, then the checks.
func printHuman(out io.Writer, rep report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	f := rep.Facts
	fmt.Fprintf(out, "# %s seed=%v input_digest=%v point_samples=%v (%v beyond p99) query_samples=%v (%v beyond p99)\n",
		rep.Workload, f["seed"], f["input_digest"], f["point_samples"], f["point_samples_beyond_p99"],
		f["query_samples"], f["query_samples_beyond_p99"])
	for _, n := range names {
		fmt.Fprintf(out, "%-34s %14.6g %s\n", n, rep.Metrics[n], unitOf(n))
	}
	for k, v := range rep.Checks {
		fmt.Fprintf(out, "CHECK FAILED %s: %s\n", k, v)
	}
}
