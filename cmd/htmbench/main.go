// Command htmbench regenerates the tables and figures of Brown's "A
// Template for Implementing Fast Lock-free Trees Using HTM" (PODC 2017)
// on the simulated-HTM substrate. Each experiment prints CSV rows (and a
// short legend) matching the corresponding paper artifact:
//
//	-experiment fig14     throughput vs threads, BST + (a,b)-tree, light
//	                      and heavy workloads (Figure 14; Figure 15 is
//	                      the same sweep with -threads extended)
//	-experiment fig16     transaction commit/abort rates per path
//	-experiment fig17     Hybrid NOrec comparison (BST, light workload)
//	-experiment pathusage operations completed per path (Section 7.2)
//	-experiment sec8      searches outside transactions (Section 8)
//	-experiment sec10     CITRUS and k-CAS list acceleration (Section 10)
//	-experiment headline  (a,b)-tree 3-path vs non-htm ratios (abstract)
//	-experiment shardscale throughput vs shard count (beyond the paper:
//	                      the key space partitioned across independent
//	                      trees, each with its own engine and HTM context),
//	                      with pinned-vs-unpinned updater rows
//	-experiment rqconsistency retry/escalation rate of atomic cross-shard
//	                      range queries as update load grows (beyond the
//	                      paper: the per-shard version validation scheme)
//	-experiment rangeagg  O(log n) subtree-aggregate queries vs leaf
//	                      walks across range size x tree size, plus the
//	                      retry-rate drop aggregate reads buy atomic
//	                      half-keyspace windows under churn (beyond the
//	                      paper: transactionally maintained aggregates)
//	-experiment skew      range vs hash vs adaptive shard routing under a
//	                      Zipfian key distribution (beyond the paper: the
//	                      router abstraction and live rebalancing)
//	-experiment batchamortize batched vs unbatched point-op throughput as
//	                      batch size grows, with the amortized router-
//	                      lookup and monitor-bracket counts (beyond the
//	                      paper: the async batching subsystem)
//	-experiment abortpolicy static vs adaptive retry policy under the
//	                      default, POWER8 capacity-heavy and spurious-
//	                      heavy abort profiles, with per-cause abort and
//	                      policy-action counters (beyond the paper: the
//	                      abort-taxonomy-driven path policy)
//	-experiment oversub   tail latency with threads > GOMAXPROCS: the
//	                      classic TLE fallback lock vs the helpable
//	                      lock-free lock, p50/p99/p999 per variant
//	                      (beyond the paper: the lock-free-locks
//	                      fallback)
//	-experiment obsoverhead instrumented (Config.Observability with
//	                      default sampling) vs uninstrumented point-op
//	                      throughput and tail latency, both trees,
//	                      unsharded and sharded — the observability
//	                      layer's measured price against its <=5% budget
//	-experiment all       everything above
//
// Every experiment emits rows of one uniform, version-stamped CSV
// schema (see csv.go): a single header covers the whole run, and
// experiment-specific counters ride in the final extras column as
// key=value pairs.
//
// -format json replaces the CSV tables with the machine-readable
// baseline suite: one JSON row per structure x workload x shard-count
// with throughput, thread-ns/op, steady-state allocs/op, latency
// quantiles and per-path operation counts — the schema of the
// committed BENCH_*.json files. With `-experiment oversub` the JSON
// output is instead the oversubscription artifact: both fallback
// variants with their full latency histograms embedded.
//
// -http serves the live observability endpoint while the experiments
// run: Prometheus /metrics, JSON /vars, the flight-recorder /events
// dump and /debug/pprof/, all scraping the tree currently under
// measurement (every tree is then built with Config.Observability).
//
// -experiment also accepts a comma-separated list (e.g.
// "skew,rqconsistency"). The -shards flag partitions every tree in the
// figure experiments across N shards (default 1, the paper's unsharded
// configuration); -router selects the shard routing policy, -zipf
// switches the update key distribution to Zipfian with the given theta,
// and -batch runs the update threads through the asynchronous batched
// path with N-op batches. -policy selects the engine retry policy
// (adaptive|static) for every experiment, and -spurious injects a
// simulated spurious abort every N transactional accesses into
// experiments that do not pin their own HTM profile.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"htmtree/internal/abtree"
	"htmtree/internal/bst"
	"htmtree/internal/citrus"
	"htmtree/internal/dict"
	"htmtree/internal/engine"
	"htmtree/internal/htm"
	"htmtree/internal/hybridnorec"
	"htmtree/internal/kcas"
	"htmtree/internal/obs"
	"htmtree/internal/shard"
	"htmtree/internal/workload"
	"htmtree/internal/xrand"
)

type options struct {
	experiment string
	threads    []int
	duration   time.Duration
	trials     int
	bstKeys    uint64
	abKeys     uint64
	listKeys   uint64
	seed       uint64
	allAlgs    bool
	shards     int
	router     string
	zipf       float64
	batch      int
	format     string
	spurious   uint64
	policy     string
	httpAddr   string
	// obsCfg, set when -http is given, instruments every tree the
	// workload.Spec paths build and publishes it as the live endpoint's
	// scrape source.
	obsCfg *obs.Config
}

// liveObs is the tree currently under measurement, scraped by the -http
// endpoint; trials swap it as they construct fresh instances.
var liveObs atomic.Pointer[obs.Obs]

// newDict constructs sp's dictionary — instrumented and published as
// the live observability source when -http is serving.
func (o options) newDict(sp workload.Spec) dict.Dict {
	if o.obsCfg == nil {
		return sp.New()
	}
	sp.Observe = o.obsCfg
	d, ob := sp.NewObserved()
	liveObs.Store(ob)
	return d
}

// mkSpec adapts newDict to trial's fresh-instance constructor shape.
func (o options) mkSpec(sp workload.Spec) func() dict.Dict {
	return func() dict.Dict { return o.newDict(sp) }
}

// htmCfg merges the -spurious flag into an experiment's HTM config
// (experiments that pin their own spurious rate keep it).
func (o options) htmCfg(hc htm.Config) htm.Config {
	if hc.SpuriousEvery == 0 {
		hc.SpuriousEvery = o.spurious
	}
	return hc
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "htmbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var o options
	var threadsFlag string
	flag.StringVar(&o.experiment, "experiment", "all",
		"comma-separated list of fig14|fig16|fig17|pathusage|sec8|sec10|headline|shardscale|rqconsistency|rangeagg|skew|batchamortize|abortpolicy|oversub|obsoverhead|chaos, or all")
	flag.StringVar(&threadsFlag, "threads", "1,2,4,8", "comma-separated thread counts")
	flag.DurationVar(&o.duration, "duration", 300*time.Millisecond, "measurement window per trial")
	flag.IntVar(&o.trials, "trials", 3, "trials per configuration (median reported)")
	flag.Uint64Var(&o.bstKeys, "bst-keys", 10000, "BST key range (paper: 1e4)")
	flag.Uint64Var(&o.abKeys, "ab-keys", 100000, "(a,b)-tree key range (paper: 1e6)")
	flag.Uint64Var(&o.listKeys, "list-keys", 256, "k-CAS list key range")
	flag.Uint64Var(&o.seed, "seed", 1, "base random seed")
	flag.BoolVar(&o.allAlgs, "all-algs", false, "include 2-path-ncon and scx-htm in figures")
	flag.IntVar(&o.shards, "shards", 1, "partition each tree across N shards (1 = unsharded)")
	flag.StringVar(&o.router, "router", "range", "shard routing policy: range|hash|adaptive")
	flag.Float64Var(&o.zipf, "zipf", 0, "Zipfian update-key theta in (0,1); 0 = uniform keys")
	flag.IntVar(&o.batch, "batch", 1, "batch update threads' operations N at a time through the async pipeline (1 = unbatched)")
	flag.Uint64Var(&o.spurious, "spurious", 0,
		"inject a simulated spurious abort every N transactional accesses (0 = none); experiments that pin their own HTM profile keep it")
	flag.StringVar(&o.policy, "policy", "adaptive",
		"engine retry policy for all experiments: adaptive|static (abortpolicy compares both regardless)")
	flag.StringVar(&o.httpAddr, "http", "",
		"serve the live observability endpoint on this address while experiments run (e.g. :6060): /metrics, /vars, /events, /debug/pprof/; every tree is then built instrumented")
	flag.StringVar(&o.format, "format", "csv",
		"output format: csv runs the selected -experiment tables; json runs the machine-readable baseline suite (structure x light/heavy x 1/N shards with throughput, ns/op, steady-state allocs/op and per-path counts) used for the committed BENCH_*.json trajectory")
	flag.Parse()

	if o.shards < 1 {
		return fmt.Errorf("bad -shards %d", o.shards)
	}
	switch o.router {
	case "range", "hash", "adaptive":
	default:
		return fmt.Errorf("bad -router %q (want range, hash or adaptive)", o.router)
	}
	if o.zipf < 0 || o.zipf >= 1 {
		return fmt.Errorf("bad -zipf %v (want 0, or theta in (0,1))", o.zipf)
	}
	if o.batch < 1 {
		return fmt.Errorf("bad -batch %d (want >= 1)", o.batch)
	}
	if _, ok := engine.ParsePolicy(o.policy); !ok {
		return fmt.Errorf("bad -policy %q (want %s)", o.policy, strings.Join(engine.PolicyNames, " or "))
	}
	switch o.format {
	case "csv", "json":
	default:
		return fmt.Errorf("bad -format %q (want csv or json)", o.format)
	}

	if o.httpAddr != "" {
		o.obsCfg = &obs.Config{}
		srv, err := obs.Serve(o.httpAddr, liveObs.Load)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr,
			"htmbench: observability endpoint on http://%s (/metrics, /vars, /events, /debug/pprof/)\n",
			srv.Addr())
	}

	for _, part := range strings.Split(threadsFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return fmt.Errorf("bad -threads element %q", part)
		}
		o.threads = append(o.threads, n)
	}

	var exps []string
	for _, e := range strings.Split(o.experiment, ",") {
		e = strings.TrimSpace(e)
		if e == "" {
			continue
		}
		if e == "all" {
			exps = append(exps, "fig14", "fig16", "fig17", "pathusage", "sec8",
				"sec10", "headline", "shardscale", "rqconsistency", "rangeagg",
				"skew", "batchamortize", "abortpolicy", "oversub", "obsoverhead",
				"chaos")
			continue
		}
		exps = append(exps, e)
	}
	// Reject unknown names before running anything: a typo at the end
	// of the list must not cost the minutes the earlier experiments take.
	for _, e := range exps {
		switch e {
		case "fig14", "fig16", "fig17", "pathusage", "sec8", "sec10",
			"headline", "shardscale", "rqconsistency", "rangeagg", "skew",
			"batchamortize", "abortpolicy", "oversub", "obsoverhead", "chaos":
		default:
			return fmt.Errorf("unknown experiment %q", e)
		}
	}

	if o.format == "json" {
		if len(exps) == 1 && exps[0] == "oversub" {
			return oversubJSON(o)
		}
		if len(exps) == 1 && exps[0] == "obsoverhead" {
			return obsOverheadJSON(o)
		}
		if len(exps) == 1 && exps[0] == "chaos" {
			return chaosJSON(o)
		}
		return jsonExperiments(o)
	}

	csvHeader()
	for _, e := range exps {
		switch e {
		case "fig14":
			fig14(o)
		case "fig16":
			fig16(o)
		case "fig17":
			fig17(o)
		case "pathusage":
			pathUsage(o)
		case "sec8":
			sec8(o)
		case "sec10":
			sec10(o)
		case "headline":
			headline(o)
		case "shardscale":
			shardScale(o)
		case "rqconsistency":
			rqConsistency(o)
		case "rangeagg":
			rangeAgg(o)
		case "skew":
			skew(o)
		case "batchamortize":
			batchAmortize(o)
		case "abortpolicy":
			abortPolicy(o)
		case "oversub":
			oversub(o)
		case "obsoverhead":
			obsOverhead(o)
		case "chaos":
			chaos(o)
		default:
			return fmt.Errorf("unknown experiment %q", e)
		}
	}
	return nil
}

// figureAlgorithms are the series shown in the paper's figures.
func figureAlgorithms(all bool) []engine.Algorithm {
	algs := []engine.Algorithm{
		engine.AlgNonHTM, engine.AlgTLE, engine.AlgTwoPathConc, engine.AlgThreePath,
	}
	if all {
		algs = append(algs, engine.AlgTwoPathNCon, engine.AlgSCXHTM)
	}
	return algs
}

// dsSpec describes one data-structure column of Figure 14/15.
type dsSpec struct {
	name      string // CSV label, including any "/xN" shard suffix
	structure string // bare workload.Spec structure name
	keyRange  uint64
	rqMax     uint64
	make      func(alg engine.Algorithm, searchOutside bool, htmCfg htm.Config) dict.Dict
}

func specs(o options) []dsSpec {
	mk := func(structure string, keyRange uint64) func(engine.Algorithm, bool, htm.Config) dict.Dict {
		return func(alg engine.Algorithm, so bool, hc htm.Config) dict.Dict {
			return o.newDict(workload.Spec{
				Structure:       structure,
				Algorithm:       alg,
				Shards:          o.shards,
				KeySpan:         keyRange,
				Router:          o.router,
				SearchOutsideTx: so,
				HTM:             o.htmCfg(hc),
				Policy:          o.policy,
			})
		}
	}
	// Sharded runs are labeled "bst/x8" (plus a router suffix for
	// non-default routing) so their CSV rows cannot be mixed up with
	// unsharded results; unsharded labels are unchanged.
	label := func(structure string) string {
		if o.shards > 1 {
			s := fmt.Sprintf("%s/x%d", structure, o.shards)
			if o.router != "range" {
				s += "/" + o.router
			}
			return s
		}
		return structure
	}
	return []dsSpec{
		{name: label("bst"), structure: "bst", keyRange: o.bstKeys, rqMax: 1000,
			make: mk("bst", o.bstKeys)},
		{name: label("abtree"), structure: "abtree", keyRange: o.abKeys, rqMax: 10000,
			make: mk("abtree", o.abKeys)},
	}
}

// trial runs cfg o.trials times on fresh instances from mk and returns
// the median throughput plus the last run's full result. The -zipf flag
// switches every trial's update keys to the Zipfian distribution.
func trial(o options, mk func() dict.Dict, cfg workload.Config) (float64, workload.Result) {
	if o.zipf > 0 {
		cfg.Dist = workload.DistZipf
		cfg.ZipfTheta = o.zipf
	}
	if o.batch > 1 && cfg.BatchOps == 0 {
		cfg.BatchOps = o.batch
	}
	tputs := make([]float64, 0, o.trials)
	var last workload.Result
	for i := 0; i < o.trials; i++ {
		cfg.Seed = trialSeed(o.seed, i)
		d := mk()
		last = workload.Run(d, cfg)
		if !last.KeySumOK {
			fmt.Fprintf(os.Stderr, "WARNING: key-sum validation FAILED (%+v)\n", cfg)
		}
		tputs = append(tputs, last.Throughput)
	}
	sort.Float64s(tputs)
	return tputs[len(tputs)/2], last
}

func fig14(o options) {
	fmt.Println("# Figure 14/15: throughput (ops/sec) vs threads")
	for _, spec := range specs(o) {
		for _, kind := range []workload.Kind{workload.Light, workload.Heavy} {
			for _, alg := range figureAlgorithms(o.allAlgs) {
				for _, n := range o.threads {
					if kind == workload.Heavy && n < 2 {
						continue // heavy needs >= 1 updater + 1 RQ thread
					}
					spec, kind, alg, n := spec, kind, alg, n
					med, _ := trial(o, func() dict.Dict { return spec.make(alg, false, htm.Config{}) },
						workload.Config{
							Threads:   n,
							Duration:  o.duration,
							KeyRange:  spec.keyRange,
							RQSizeMax: spec.rqMax,
							Kind:      kind,
						})
					row{experiment: "fig14", structure: spec.name, workload: kind.String(),
						algorithm: alg.String(), threads: n, shards: o.shards,
						throughput: med}.emit()
				}
			}
		}
	}
}

func fig16(o options) {
	n := o.threads[len(o.threads)-1]
	fmt.Println("# Figure 16: transaction commit/abort rates (max threads)")
	fmt.Println("# extras: path, commits, aborts, abort_conflict, abort_capacity, abort_explicit, abort_spurious")
	for _, spec := range specs(o) {
		for _, kind := range []workload.Kind{workload.Light, workload.Heavy} {
			for _, alg := range []engine.Algorithm{engine.AlgTLE, engine.AlgTwoPathConc, engine.AlgThreePath} {
				if kind == workload.Heavy && n < 2 {
					continue
				}
				_, res := trial(o, func() dict.Dict { return spec.make(alg, false, htm.Config{}) },
					workload.Config{
						Threads: n, Duration: o.duration,
						KeyRange: spec.keyRange, RQSizeMax: spec.rqMax, Kind: kind,
					})
				hs := res.HTMStats
				for _, p := range []htm.PathKind{htm.PathFast, htm.PathMiddle} {
					if hs.Commits[p] == 0 && hs.TotalAborts(p) == 0 {
						continue
					}
					row{experiment: "fig16", structure: spec.name, workload: kind.String(),
						algorithm: alg.String(), threads: n, shards: o.shards,
						extras: []string{
							kv("path", "%s", p),
							kv("commits", "%d", hs.Commits[p]),
							kv("aborts", "%d", hs.TotalAborts(p)),
							kv("abort_conflict", "%d", hs.Aborts[p][htm.CauseConflict]),
							kv("abort_capacity", "%d", hs.Aborts[p][htm.CauseCapacity]),
							kv("abort_explicit", "%d", hs.Aborts[p][htm.CauseExplicit]),
							kv("abort_spurious", "%d", hs.Aborts[p][htm.CauseSpurious]),
						}}.emit()
				}
			}
		}
	}
}

func fig17(o options) {
	fmt.Println("# Figure 17: BST light workload incl. Hybrid NOrec")
	series := []struct {
		name string
		mk   func() dict.Dict
	}{
		{"non-htm", func() dict.Dict { return bst.New(bst.Config{Algorithm: engine.AlgNonHTM}) }},
		{"tle", func() dict.Dict { return bst.New(bst.Config{Algorithm: engine.AlgTLE}) }},
		{"2-path-con", func() dict.Dict { return bst.New(bst.Config{Algorithm: engine.AlgTwoPathConc}) }},
		{"3-path", func() dict.Dict { return bst.New(bst.Config{Algorithm: engine.AlgThreePath}) }},
		{"hybrid-norec", func() dict.Dict { return hybridnorec.NewBST(htm.Config{}, 0) }},
	}
	for _, s := range series {
		for _, n := range o.threads {
			med, _ := trial(o, s.mk, workload.Config{
				Threads: n, Duration: o.duration, KeyRange: o.bstKeys, Kind: workload.Light,
			})
			row{experiment: "fig17", structure: "bst", workload: "light",
				algorithm: s.name, threads: n, shards: 1, throughput: med}.emit()
		}
	}
}

func pathUsage(o options) {
	n := o.threads[len(o.threads)-1]
	fmt.Println("# Section 7.2: operations completed per path (3-path, max threads)")
	fmt.Println("# extras: fast_pct, middle_pct, fallback_pct")
	for _, spec := range specs(o) {
		for _, kind := range []workload.Kind{workload.Light, workload.Heavy} {
			if kind == workload.Heavy && n < 2 {
				continue
			}
			_, res := trial(o, func() dict.Dict { return spec.make(engine.AlgThreePath, false, htm.Config{}) },
				workload.Config{
					Threads: n, Duration: o.duration,
					KeyRange: spec.keyRange, RQSizeMax: spec.rqMax, Kind: kind,
				})
			ps := res.PathStats
			tot := float64(ps.Total())
			row{experiment: "pathusage", structure: spec.name, workload: kind.String(),
				algorithm: "3-path", threads: n, shards: o.shards,
				extras: []string{
					kv("fast_pct", "%.2f", 100*float64(ps.Fast)/tot),
					kv("middle_pct", "%.2f", 100*float64(ps.Middle)/tot),
					kv("fallback_pct", "%.2f", 100*float64(ps.Fallback)/tot),
				}}.emit()
		}
	}
}

// sec8 compares searches inside and outside transactions. Only the BST
// implements the Section 8 search; on (a,b)-tree rows the flag merely
// turns off immediate recycling, so those rows measure that alone.
func sec8(o options) {
	n := o.threads[len(o.threads)-1]
	fmt.Println("# Section 8: searches outside transactions (3-path, light workload)")
	fmt.Println("# extras: htm_profile, search_outside_tx, gain_pct (on the outside-tx row)")
	for _, spec := range specs(o) {
		for _, profile := range []struct {
			name string
			cfg  htm.Config
		}{{"intel", htm.Config{}}, {"power8", htm.POWER8Config()}} {
			inTx, _ := trial(o, func() dict.Dict { return spec.make(engine.AlgThreePath, false, profile.cfg) },
				workload.Config{Threads: n, Duration: o.duration, KeyRange: spec.keyRange, Kind: workload.Light})
			outTx, _ := trial(o, func() dict.Dict { return spec.make(engine.AlgThreePath, true, profile.cfg) },
				workload.Config{Threads: n, Duration: o.duration, KeyRange: spec.keyRange, Kind: workload.Light})
			base := row{experiment: "sec8", structure: spec.name, workload: "light",
				algorithm: "3-path", threads: n, shards: o.shards}
			in, out := base, base
			in.throughput = inTx
			in.extras = []string{kv("htm_profile", "%s", profile.name),
				kv("search_outside_tx", "%d", 0)}
			out.throughput = outTx
			out.extras = []string{kv("htm_profile", "%s", profile.name),
				kv("search_outside_tx", "%d", 1),
				kv("gain_pct", "%.1f", 100*(outTx-inTx)/inTx)}
			in.emit()
			out.emit()
		}
	}
}

func sec10(o options) {
	n := o.threads[len(o.threads)-1]
	fmt.Println("# Section 10: accelerating RCU (CITRUS) and k-CAS (list)")
	for _, alg := range []engine.Algorithm{engine.AlgNonHTM, engine.AlgThreePath} {
		alg := alg
		med, _ := trial(o, func() dict.Dict { return citrus.New(citrus.Config{Algorithm: alg}) },
			workload.Config{Threads: n, Duration: o.duration, KeyRange: o.bstKeys, Kind: workload.Light})
		row{experiment: "sec10", structure: "citrus", workload: "light",
			algorithm: alg.String(), threads: n, shards: 1, throughput: med}.emit()
	}
	for _, alg := range []engine.Algorithm{engine.AlgNonHTM, engine.AlgThreePath} {
		alg := alg
		med, _ := trial(o, func() dict.Dict { return kcas.NewList(kcas.ListConfig{Algorithm: alg}) },
			workload.Config{Threads: n, Duration: o.duration, KeyRange: o.listKeys, Kind: workload.Light})
		row{experiment: "sec10", structure: "kcas-list", workload: "light",
			algorithm: alg.String(), threads: n, shards: 1, throughput: med}.emit()
	}
}

// shardScale sweeps the shard count and, for each sharded point, also
// measures updaters pinned to their home shards: a pinned updater never
// leaves its shard's key range, so its transactions never conflict with
// another shard's traffic — the conflict-domain win partitioning exists
// for, shown explicitly against the unpinned rows.
func shardScale(o options) {
	n := o.threads[len(o.threads)-1]
	fmt.Println("# Shard scaling: throughput vs shard count (3-path, max threads)")
	fmt.Println("# extras: pinned, speedup_vs_1")
	for _, ds := range specs(o) {
		for _, kind := range []workload.Kind{workload.Light, workload.Heavy} {
			if kind == workload.Heavy && n < 2 {
				continue
			}
			var base float64
			for _, shards := range []int{1, 2, 4, 8, 16} {
				spec := workload.Spec{
					Structure: ds.structure,
					Algorithm: engine.AlgThreePath,
					Shards:    shards,
					KeySpan:   ds.keyRange,
					HTM:       o.htmCfg(htm.Config{}),
					Policy:    o.policy,
				}
				pinnedModes := []bool{false}
				if shards > 1 {
					pinnedModes = append(pinnedModes, true)
				}
				for _, pinned := range pinnedModes {
					med, _ := trial(o, o.mkSpec(spec), workload.Config{
						Threads:     n,
						Duration:    o.duration,
						KeyRange:    ds.keyRange,
						RQSizeMax:   ds.rqMax,
						Kind:        kind,
						PinUpdaters: pinned,
					})
					if shards == 1 {
						base = med
					}
					speedup := 0.0
					if base > 0 {
						speedup = med / base
					}
					pin := 0
					if pinned {
						pin = 1
					}
					row{experiment: "shardscale", structure: ds.structure,
						workload: kind.String(), algorithm: "3-path",
						threads: n, shards: shards, throughput: med,
						extras: []string{
							kv("pinned", "%d", pin),
							kv("speedup_vs_1", "%.2f", speedup),
						}}.emit()
				}
			}
		}
	}
}

// skew compares the three shard routers under a Zipfian update
// workload: range routing collapses the hot key head onto one shard
// (max_shard_share → 1), hash routing scatters it, and adaptive
// routing migrates boundary slices of the hot shard's range to its
// neighbors at runtime (the migrations and keys_moved columns show the
// rebalancer working, max_shard_share its convergence toward 1/shards).
// max_shard_share is the router-quality signal independent of the host:
// on multi-core machines the collapsed share is exactly the fraction of
// the workload re-serialized onto one tree's conflict domain, and the
// throughput column shows hash/adaptive pulling ahead of range; on a
// single core only the share separates the routers.
func skew(o options) {
	shards := o.shards
	if shards < 2 {
		shards = 8 // the experiment is about spreading a hot shard
	}
	theta := o.zipf
	if theta == 0 {
		theta = 0.99
	}
	n := o.threads[len(o.threads)-1]
	fmt.Printf("# Skew: shard routing under Zipfian updates (3-path, %d shards, theta %.2f, light workload)\n",
		shards, theta)
	fmt.Println("# extras: router, speedup_vs_range, max_shard_share, migrations, keys_moved")
	for _, ds := range specs(o) {
		var base float64
		for _, router := range []string{"range", "hash", "adaptive"} {
			spec := workload.Spec{
				Structure: ds.structure,
				Algorithm: engine.AlgThreePath,
				Shards:    shards,
				KeySpan:   ds.keyRange,
				Router:    router,
				// Evaluate often enough that rebalancing converges
				// within a short measurement window.
				RebalanceCheckOps: 512,
				HTM:               o.htmCfg(htm.Config{}),
				Policy:            o.policy,
			}
			med, res := trial(o, o.mkSpec(spec), workload.Config{
				Threads:   n,
				Duration:  o.duration,
				KeyRange:  ds.keyRange,
				Kind:      workload.Light,
				Dist:      workload.DistZipf,
				ZipfTheta: theta,
			})
			if router == "range" {
				base = med
			}
			speedup := 0.0
			if base > 0 {
				speedup = med / base
			}
			row{experiment: "skew", structure: ds.structure, workload: "light",
				algorithm: "3-path", threads: n, shards: shards, throughput: med,
				extras: []string{
					kv("router", "%s", router),
					kv("speedup_vs_range", "%.2f", speedup),
					kv("max_shard_share", "%.3f", res.MaxShardShare),
					kv("migrations", "%d", res.Rebalance.Migrations),
					kv("keys_moved", "%d", res.Rebalance.KeysMoved),
				}}.emit()
		}
	}
}

// batchAmortize sweeps the async batch size against the unbatched
// baseline on a sharded tree: updaters enqueue point operations into
// per-thread pipelines that flush as sorted, shard-grouped batches, so
// each group pays one router lookup and one monitor admission instead
// of one per op. Reported are throughput (speedup over batch=1) and
// the amortization factors themselves — ops per router lookup and per
// monitor bracket — which separate the batching win from host noise:
// on a single core the throughput columns barely move, but the
// amortized counts drop by roughly the group size regardless of host.
// The tree rebalances (router "adaptive") with the evaluation window
// pushed out of reach, so every update pays shard-level admission —
// the bracket the batch path amortizes — without migrations moving
// the measurement.
func batchAmortize(o options) {
	shards := o.shards
	if shards < 2 {
		shards = 8 // the experiment is about amortizing per-shard dispatch
	}
	n := o.threads[len(o.threads)-1]
	fmt.Printf("# Batch amortization: batched vs unbatched updates (3-path, %d shards, light workload)\n", shards)
	fmt.Println("# extras: batch, speedup_vs_unbatched, groups, ops_per_group, ops_per_router_lookup, ops_per_monitor_bracket")
	for _, ds := range specs(o) {
		var base float64
		for _, b := range []int{1, 8, 16, 32, 64, 128} {
			spec := workload.Spec{
				Structure: ds.structure,
				Algorithm: engine.AlgThreePath,
				Shards:    shards,
				KeySpan:   ds.keyRange,
				Router:    "adaptive",
				// Keep migrations out of the measurement window; the
				// admitting handles (and their per-op monitor brackets)
				// remain.
				RebalanceCheckOps: 1 << 30,
				HTM:               o.htmCfg(htm.Config{}),
				Policy:            o.policy,
			}
			med, res := trial(o, o.mkSpec(spec), workload.Config{
				Threads:  n,
				Duration: o.duration,
				KeyRange: ds.keyRange,
				Kind:     workload.Light,
				BatchOps: b,
			})
			if b == 1 {
				base = med
			}
			speedup := 0.0
			if base > 0 {
				speedup = med / base
			}
			opsPer := func(den uint64) float64 {
				if den == 0 {
					return 0
				}
				return float64(res.Batch.Ops) / float64(den)
			}
			row{experiment: "batchamortize", structure: ds.structure,
				workload: "light", algorithm: "3-path",
				threads: n, shards: shards, throughput: med,
				extras: []string{
					kv("batch", "%d", b),
					kv("speedup_vs_unbatched", "%.2f", speedup),
					kv("groups", "%d", res.Batch.Groups),
					kv("ops_per_group", "%.1f", opsPer(res.Batch.Groups)),
					kv("ops_per_router_lookup", "%.1f", opsPer(res.Batch.RouterLookups)),
					kv("ops_per_monitor_bracket", "%.1f", opsPer(res.Batch.MonitorEnters)),
				}}.emit()
		}
	}
}

// abortPolicy compares the static (cause-blind fixed-budget) and
// adaptive (taxonomy-driven) retry policies head to head under three
// abort profiles: the default Intel-like simulator, the POWER8
// capacity-heavy profile on the heavy workload (range queries overflow
// the 64-entry transaction capacity, so capacity aborts dominate), and
// a spurious-heavy profile. Each row reports throughput, engine-level
// aborts per completed operation, the per-cause abort split summed
// over paths, and the policy's own action counters — backoffs, free
// (budget-exempt) retries, capacity path-skips and fast-path site
// demotions. Static rows show zeros in the action columns by
// construction; the adaptive win shows up as lower aborts_per_op on
// the capacity- and spurious-heavy profiles at equal or better
// throughput.
func abortPolicy(o options) {
	n := o.threads[len(o.threads)-1]
	spuriousEvery := o.spurious
	if spuriousEvery == 0 {
		spuriousEvery = 50
	}
	fmt.Println("# Abort policy: static vs adaptive retry under three abort profiles (3-path, max threads)")
	fmt.Println("# extras: profile, policy, ops, aborts_per_op, hw_aborts_per_op, abort_conflict, abort_capacity, abort_explicit, abort_spurious, backoffs, free_retries, capacity_skips, demotions, helps, busy_skips")
	profiles := []struct {
		name string
		hc   htm.Config
		kind workload.Kind
	}{
		{"default", htm.Config{}, workload.Light},
		{"power8-capacity", htm.POWER8Config(), workload.Heavy},
		{"spurious", htm.Config{SpuriousEvery: spuriousEvery}, workload.Light},
	}
	for _, ds := range specs(o) {
		for _, prof := range profiles {
			if prof.kind == workload.Heavy && n < 2 {
				continue // heavy needs >= 1 updater + 1 RQ thread
			}
			for _, policy := range engine.PolicyNames {
				spec := workload.Spec{
					Structure: ds.structure,
					Algorithm: engine.AlgThreePath,
					Shards:    o.shards,
					KeySpan:   ds.keyRange,
					Router:    o.router,
					HTM:       prof.hc,
					Policy:    policy,
				}
				med, res := trial(o, o.mkSpec(spec), workload.Config{
					Threads:   n,
					Duration:  o.duration,
					KeyRange:  ds.keyRange,
					RQSizeMax: ds.rqMax,
					Kind:      prof.kind,
				})
				ps := res.PathStats
				ops := ps.Total()
				cause := func(c htm.AbortCause) uint64 {
					var t uint64
					for p := 1; p < htm.NumPaths; p++ {
						t += ps.Aborts.On(htm.PathKind(p), c)
					}
					return t
				}
				perOp, hwPerOp := 0.0, 0.0
				if ops > 0 {
					perOp = float64(ps.Aborts.Total()) / float64(ops)
					// Explicit aborts are operation-requested control flow
					// (helping, fallback-busy); the remainder is what the
					// retry policy can actually influence.
					hw := cause(htm.CauseConflict) + cause(htm.CauseCapacity) + cause(htm.CauseSpurious)
					hwPerOp = float64(hw) / float64(ops)
				}
				row{experiment: "abortpolicy", structure: ds.name,
					workload: prof.kind.String(), algorithm: "3-path",
					threads: n, shards: o.shards, throughput: med,
					extras: []string{
						kv("profile", "%s", prof.name),
						kv("policy", "%s", policy),
						kv("ops", "%d", ops),
						kv("aborts_per_op", "%.3f", perOp),
						kv("hw_aborts_per_op", "%.3f", hwPerOp),
						kv("abort_conflict", "%d", cause(htm.CauseConflict)),
						kv("abort_capacity", "%d", cause(htm.CauseCapacity)),
						kv("abort_explicit", "%d", cause(htm.CauseExplicit)),
						kv("abort_spurious", "%d", cause(htm.CauseSpurious)),
						kv("backoffs", "%d", ps.Policy.Backoffs),
						kv("free_retries", "%d", ps.Policy.FreeRetries),
						kv("capacity_skips", "%d", ps.Policy.CapacitySkips),
						kv("demotions", "%d", ps.Policy.Demotions),
						kv("helps", "%d", ps.Policy.Helps),
						kv("busy_skips", "%d", ps.Policy.BusySkips),
					}}.emit()
			}
		}
	}
}

// rqTrialResult is one rqConsistency measurement window.
type rqTrialResult struct {
	updates, rqs uint64
	stats        shard.RQStats
}

// rqConsistency measures the cost of atomic cross-shard range queries:
// one range-query thread issues multi-shard windows against a sharded
// 3-path tree with per-shard version validation while u updater threads
// churn the key space. Reported are both sides' throughput and the
// validation loop's retry and quiesce-escalation counters — the
// optimistic scheme's price as update rate grows.
func rqConsistency(o options) {
	shards := o.shards
	if shards < 2 {
		shards = 8 // the experiment is about cross-shard windows
	}
	fmt.Println("# RQ consistency: atomic cross-shard range queries under increasing update load")
	fmt.Printf("# 3-path, %d shards; each row: updaters u + 1 range-query thread\n", shards)
	fmt.Println("# extras: updaters, updates_per_sec, rqs_per_sec, rq_attempts, rq_retries, rq_escalations, retries_per_rq")
	for _, ds := range specs(o) {
		keyRange := ds.keyRange
		width := keyRange / uint64(shards)
		if width == 0 {
			width = 1
		}
		for _, n := range o.threads {
			u := n - 1
			runTrial := func(seed uint64) rqTrialResult {
				spec := workload.Spec{
					Structure: ds.structure,
					Algorithm: engine.AlgThreePath,
					Shards:    shards,
					KeySpan:   keyRange,
					Router:    o.router,
					AtomicRQ:  true,
					HTM:       o.htmCfg(htm.Config{}),
					Policy:    o.policy,
				}
				d := o.newDict(spec)
				hp := d.NewHandle()
				for k := uint64(1); k <= keyRange; k += 2 { // prefill half the keys
					hp.Insert(k, k)
				}
				var (
					stop    atomic.Bool
					updates atomic.Uint64
					rqs     atomic.Uint64
					wg      sync.WaitGroup
				)
				for g := 0; g < u; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						h := d.NewHandle()
						rng := xrand.New(seed, uint64(g)+1)
						var done uint64
						for !stop.Load() {
							k := rng.Uint64n(keyRange) + 1
							if rng.Next()&1 == 0 {
								h.Insert(k, k)
							} else {
								h.Delete(k)
							}
							done++
						}
						updates.Add(done)
					}(g)
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					h := d.NewHandle()
					rng := xrand.New(seed, 0x5eed)
					var out []dict.KV
					var done uint64
					for !stop.Load() {
						// Windows of 1..4 shard widths: most fan out.
						lo := rng.Uint64n(keyRange) + 1
						hi := lo + width + rng.Uint64n(3*width)
						out = h.RangeQuery(lo, hi, out[:0])
						done++
					}
					rqs.Add(done)
				}()
				time.Sleep(o.duration)
				stop.Store(true)
				wg.Wait()
				return rqTrialResult{
					updates: updates.Load(),
					rqs:     rqs.Load(),
					stats:   d.(*shard.Dict).RQStats(),
				}
			}
			// Like trial(): o.trials runs, median by range-query
			// throughput reported.
			results := make([]rqTrialResult, 0, o.trials)
			for i := 0; i < o.trials; i++ {
				results = append(results, runTrial(trialSeed(o.seed, i)))
			}
			sort.Slice(results, func(i, j int) bool { return results[i].rqs < results[j].rqs })
			med := results[len(results)/2]
			secs := o.duration.Seconds()
			retPerRQ := 0.0
			if med.rqs > 0 {
				retPerRQ = float64(med.stats.Retries) / float64(med.rqs)
			}
			row{experiment: "rqconsistency", structure: ds.structure,
				algorithm: "3-path", threads: n, shards: shards,
				extras: []string{
					kv("updaters", "%d", u),
					kv("updates_per_sec", "%.0f", float64(med.updates)/secs),
					kv("rqs_per_sec", "%.0f", float64(med.rqs)/secs),
					kv("rq_attempts", "%d", med.stats.Attempts),
					kv("rq_retries", "%d", med.stats.Retries),
					kv("rq_escalations", "%d", med.stats.Escalations),
					kv("retries_per_rq", "%.3f", retPerRQ),
				}}.emit()
		}
	}
}

func headline(o options) {
	n := o.threads[len(o.threads)-1]
	fmt.Println("# Headline: (a,b)-tree, 3-path vs non-htm (paper: 4.0-4.2x at 72 threads)")
	fmt.Println("# extras: ratio_vs_non_htm (on the 3-path row); a trailing comment gives the average")
	var ratios []float64
	for _, kind := range []workload.Kind{workload.Light, workload.Heavy} {
		if kind == workload.Heavy && n < 2 {
			continue
		}
		base, _ := trial(o, func() dict.Dict { return abtree.New(abtree.Config{Algorithm: engine.AlgNonHTM}) },
			workload.Config{Threads: n, Duration: o.duration, KeyRange: o.abKeys, RQSizeMax: 10000, Kind: kind})
		acc, _ := trial(o, func() dict.Dict { return abtree.New(abtree.Config{Algorithm: engine.AlgThreePath}) },
			workload.Config{Threads: n, Duration: o.duration, KeyRange: o.abKeys, RQSizeMax: 10000, Kind: kind})
		r := acc / base
		ratios = append(ratios, r)
		row{experiment: "headline", structure: "abtree", workload: kind.String(),
			algorithm: "non-htm", threads: n, shards: 1, throughput: base}.emit()
		row{experiment: "headline", structure: "abtree", workload: kind.String(),
			algorithm: "3-path", threads: n, shards: 1, throughput: acc,
			extras: []string{kv("ratio_vs_non_htm", "%.2f", r)}}.emit()
	}
	var avg float64
	for _, r := range ratios {
		avg += r
	}
	fmt.Printf("# headline average ratio: %.2f\n", avg/float64(len(ratios)))
}
