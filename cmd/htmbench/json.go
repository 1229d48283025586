package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"

	"htmtree/internal/engine"
	"htmtree/internal/htm"
	"htmtree/internal/workload"
)

// jsonRow is one machine-readable benchmark result. This is the schema
// of the committed BENCH_*.json baselines: the bench trajectory of the
// repository is the sequence of these files, produced by
// `htmbench -format json` on a fixed host.
type jsonRow struct {
	// Schema is the output schema version (csv.go's schemaVersion):
	// rows with different stamps must not be diffed field-by-field.
	Schema int `json:"schema"`
	// Name identifies the experiment: structure/workload/xShards.
	Name string `json:"name"`
	// Throughput is completed operations per second over all threads.
	Throughput float64 `json:"throughput"`
	// NsOp is thread-nanoseconds per completed operation
	// (threads * 1e9 / throughput): the average cost of one operation on
	// one worker, comparable across thread counts.
	NsOp float64 `json:"ns_op"`
	// AllocsOp is the steady-state heap allocations per point operation,
	// measured single-threaded on a warmed tree (delete+insert+search
	// cycle, the pooled hot path). Zero means the allocation-free hot
	// path is intact.
	AllocsOp float64 `json:"allocs_op"`
	// P50Ns/P99Ns/P999Ns are per-operation update latency quantiles
	// (nanoseconds, ~3% bucket quantization) from the trial's per-thread
	// histogram capture; the heavy workloads' dedicated range-query
	// thread is excluded, so the columns are comparable across kinds.
	P50Ns  uint64 `json:"p50_ns"`
	P99Ns  uint64 `json:"p99_ns"`
	P999Ns uint64 `json:"p999_ns"`
	// Paths counts operation completions per execution path during the
	// throughput trial.
	Paths map[string]uint64 `json:"paths"`
	// Aborts counts failed transactional attempts during the throughput
	// trial, keyed "path/cause" (e.g. "fast/conflict"); zero buckets are
	// omitted, so an absent map means an abort-free run.
	Aborts map[string]uint64 `json:"aborts,omitempty"`
	// Policy counts the retry policy's actions during the throughput
	// trial: backoffs, free_retries, capacity_skips, demotions, helps,
	// busy_skips. Zero counters are omitted.
	Policy map[string]uint64 `json:"policy,omitempty"`
	// Extras carries experiment-specific numbers — the JSON counterpart
	// of the CSV extras column (e.g. the rangeagg rows' walk-vs-aggregate
	// speedup and retry counters). Absent for the baseline suite rows.
	Extras map[string]float64 `json:"extras,omitempty"`
}

// abortMap flattens the nonzero per-path-per-cause abort counters into
// the "path/cause"-keyed form of jsonRow.Aborts. Returns nil when no
// attempt aborted.
func abortMap(a engine.AbortCounts) map[string]uint64 {
	var m map[string]uint64
	for p := 1; p < htm.NumPaths; p++ {
		for c := 1; c < htm.NumCauses; c++ {
			if n := a.On(htm.PathKind(p), htm.AbortCause(c)); n > 0 {
				if m == nil {
					m = make(map[string]uint64)
				}
				m[htm.PathKind(p).String()+"/"+htm.AbortCause(c).String()] = n
			}
		}
	}
	return m
}

// policyMap flattens the nonzero retry-policy action counters. Returns
// nil when the policy never intervened (e.g. StaticPolicy).
func policyMap(ps engine.PolicyStats) map[string]uint64 {
	var m map[string]uint64
	put := func(k string, v uint64) {
		if v > 0 {
			if m == nil {
				m = make(map[string]uint64)
			}
			m[k] = v
		}
	}
	put("backoffs", ps.Backoffs)
	put("free_retries", ps.FreeRetries)
	put("capacity_skips", ps.CapacitySkips)
	put("demotions", ps.Demotions)
	put("helps", ps.Helps)
	put("busy_skips", ps.BusySkips)
	return m
}

// jsonExperiments runs the machine-readable benchmark suite: for each
// structure, the light and heavy workloads on the unsharded tree and on
// a multi-shard tree (8 shards, or -shards when given larger). The
// multi-shard light rows are the write-throughput numbers the PR-5
// acceptance tracks.
func jsonExperiments(o options) error {
	shards := o.shards
	if shards < 2 {
		shards = 8
	}
	n := o.threads[len(o.threads)-1]
	var rows []jsonRow
	for _, ds := range specs(o) {
		for _, sh := range []int{1, shards} {
			for _, kind := range []workload.Kind{workload.Light, workload.Heavy} {
				if kind == workload.Heavy && n < 2 {
					continue // heavy needs >= 1 updater + 1 RQ thread
				}
				spec := workload.Spec{
					Structure: ds.structure,
					Algorithm: engine.AlgThreePath,
					Shards:    sh,
					KeySpan:   ds.keyRange,
					Router:    o.router,
					HTM:       o.htmCfg(htm.Config{}),
					Policy:    o.policy,
				}
				med, res := trial(o, o.mkSpec(spec), workload.Config{
					Threads:        n,
					Duration:       o.duration,
					KeyRange:       ds.keyRange,
					RQSizeMax:      ds.rqMax,
					Kind:           kind,
					MeasureLatency: true,
				})
				row := jsonRow{
					Schema:     schemaVersion,
					Name:       fmt.Sprintf("%s/%s/x%d", ds.structure, kind, sh),
					Throughput: med,
					AllocsOp:   steadyStateAllocs(spec),
					P50Ns:      res.Latency.Quantile(0.5),
					P99Ns:      res.Latency.Quantile(0.99),
					P999Ns:     res.Latency.Quantile(0.999),
					Paths: map[string]uint64{
						"fast":     res.PathStats.Fast,
						"middle":   res.PathStats.Middle,
						"fallback": res.PathStats.Fallback,
					},
					Aborts: abortMap(res.PathStats.Aborts),
					Policy: policyMap(res.PathStats.Policy),
				}
				if med > 0 {
					row.NsOp = float64(n) * 1e9 / med
				}
				rows = append(rows, row)
			}
		}
	}
	rows = append(rows, rangeAggJSONRows(o)...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}

// steadyStateAllocs measures heap allocations per point operation on a
// warmed single-handle tree: the same discipline as the repository's
// allocation-gate test, reported here so the JSON baseline records it
// per configuration.
func steadyStateAllocs(spec workload.Spec) float64 {
	d := spec.New()
	h := d.NewHandle()
	const keys = 512
	for k := uint64(1); k <= keys; k++ {
		h.Insert(k, k)
	}
	cycle := func(k uint64) {
		h.Delete(k)
		h.Insert(k, k)
		h.Search(k)
	}
	for i := 0; i < 400; i++ {
		cycle(uint64(i%keys) + 1)
	}
	const runs = 400
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		cycle(uint64(i%keys) + 1)
	}
	runtime.ReadMemStats(&after)
	perCycle := float64(after.Mallocs-before.Mallocs) / runs
	return perCycle / 3 // three point ops per cycle
}
