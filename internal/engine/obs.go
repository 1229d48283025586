package engine

import (
	"sync/atomic"

	"htmtree/internal/htm"
	"htmtree/internal/obs"
)

// This file attaches an engine to the live observability layer. The
// metric families deliberately register read closures over the SAME
// per-thread atomic counters Stats() has always summed — ops per path,
// aborts per path and cause, the retry policy's action counters — so
// the counters the hot path was already maintaining become the metric
// store directly: a scrape sums them on the scraper's goroutine, and
// the operation threads pay nothing beyond what the OpStats plumbing
// already cost. The only counters added for observability are ones
// nothing tracked before (fallback critical-section acquisitions, the
// monitor's quiesce count).

// policyActions names the PolicyStats fields for the
// htmtree_policy_actions_total family's action label.
var policyActions = []struct {
	name string
	get  func(*PolicyStats) *uint64
}{
	{"backoff", func(s *PolicyStats) *uint64 { return &s.Backoffs }},
	{"free_retry", func(s *PolicyStats) *uint64 { return &s.FreeRetries }},
	{"capacity_skip", func(s *PolicyStats) *uint64 { return &s.CapacitySkips }},
	{"demotion", func(s *PolicyStats) *uint64 { return &s.Demotions }},
	{"help", func(s *PolicyStats) *uint64 { return &s.Helps }},
	{"busy_skip", func(s *PolicyStats) *uint64 { return &s.BusySkips }},
}

// registerObs registers the engine's metric families on the node (one
// node per engine — the shard layer labels it with the shard index).
func (e *Engine) registerObs(n *obs.Node) {
	n.Counter("htmtree_ops_total",
		"Operations completed, by execution path.",
		func(emit obs.Point) {
			var per [htm.NumPaths]uint64
			e.mu.Lock()
			for _, th := range e.threads {
				for p := 1; p < htm.NumPaths; p++ {
					per[p] += atomic.LoadUint64(&th.ops[p])
				}
			}
			e.mu.Unlock()
			for p := 1; p < htm.NumPaths; p++ {
				emit(float64(per[p]), obs.L("path", htm.PathKind(p).String()))
			}
		})
	n.Counter("htmtree_tx_aborts_total",
		"Failed transactional attempts, by execution path and abort cause.",
		func(emit obs.Point) {
			var per AbortCounts
			e.mu.Lock()
			for _, th := range e.threads {
				for p := 1; p < htm.NumPaths; p++ {
					for c := 0; c < htm.NumCauses; c++ {
						per[p][c] += atomic.LoadUint64(&th.aborts[p][c])
					}
				}
			}
			e.mu.Unlock()
			for p := 1; p < htm.NumPaths; p++ {
				for c := 1; c < htm.NumCauses; c++ { // CauseNone never aborts
					emit(float64(per[p][c]),
						obs.L("path", htm.PathKind(p).String()),
						obs.L("cause", htm.AbortCause(c).String()))
				}
			}
		})
	n.Counter("htmtree_policy_actions_total",
		"Retry-policy actions taken after failed attempts, by action.",
		func(emit obs.Point) {
			var s PolicyStats
			e.mu.Lock()
			for _, th := range e.threads {
				s.addAtomic(&th.polstats)
			}
			e.mu.Unlock()
			for _, a := range policyActions {
				emit(float64(*a.get(&s)), obs.L("action", a.name))
			}
		})
	n.Counter("htmtree_fallback_acquisitions_total",
		"Fallback critical-section acquisitions (classic TLE lock takes plus helpable descriptors completed by their owner).",
		func(emit obs.Point) {
			var total uint64
			e.mu.Lock()
			for _, th := range e.threads {
				total += atomic.LoadUint64(&th.fallbackAcq)
			}
			e.mu.Unlock()
			emit(float64(total))
		})
	if mon := e.cfg.Monitor; mon != nil {
		n.Counter("htmtree_monitor_quiesces_total",
			"Completed update-monitor quiesces (escalated consistent reads and shard migrations).",
			func(emit obs.Point) { emit(float64(mon.Quiesces())) })
	}
}
