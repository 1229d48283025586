package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// A span covers one call the benchmark makes into a layer. Spans stay in
// memory (per client, preallocated, no pointers for the GC to scan) and
// are written out when the run ends.
type span struct {
	id, parent int32
	layer, op  uint8 // indexes into spanNames
	client     int8
	start, end int64 // ns since the run's time base
}

// Span layer and op names; spanNames maps each to its text.
const (
	snHtmtree uint8 = iota + 1
	snBatch
	snLadder
	snHTM
	snEngine
	snTree
	snShard
	snObs
	snInsert
	snDelete
	snSearch
	snRangeQuery
	snRangeAgg
	snGroup
	snFlush
	snWait
	snRound
	snTx
	snAbort
	snRun
	snOp
	snRQ
)

var spanNames = [...]string{"", "htmtree", "batch", "ladder", "htm", "engine", "tree", "shard", "obs",
	"insert", "delete", "search", "range_query", "range_agg", "group", "flush", "wait", "round",
	"tx", "abort", "run", "op", "rq"}

// A client records a span for one op in spanEvery point ops, one in
// querySpanEvery queries and one batch group (with its flush and wait)
// in groupSpanEvery groups. The ladder records every rung of every round.
const (
	spanEvery      = 64
	querySpanEvery = 8
	groupSpanEvery = 8
)

// spanCap bounds each recorder's memory; spans past it are counted as
// dropped.
const spanCap = 1 << 18

type recorder struct {
	base    time.Time
	client  int8
	idBase  int32
	spans   []span
	dropped int
}

// newRecorder returns a recorder holding up to capacity spans; with 0 it
// only keeps the time base.
func newRecorder(base time.Time, client, capacity int) *recorder {
	return &recorder{base: base, client: int8(client), idBase: int32(client+1) << 24,
		spans: make([]span, 0, capacity)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// add records a span and returns its id (0 when dropped).
func (r *recorder) add(layer, op uint8, parent int32, start, end int64) int32 {
	if len(r.spans) == cap(r.spans) {
		r.dropped++
		return 0
	}
	id := r.idBase + int32(len(r.spans)) + 1
	r.spans = append(r.spans, span{id: id, parent: parent, layer: layer, op: op,
		client: r.client, start: start, end: end})
	return id
}

// finish sets the end of a span recorded with end 0.
func (r *recorder) finish(id int32, end int64) {
	if id != 0 {
		r.spans[id-r.idBase-1].end = end
	}
}

// writeSpans writes every recorder's spans as JSON lines.
func writeSpans(path string, recs []*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, r := range recs {
		for _, s := range r.spans {
			fmt.Fprintf(w, `{"id":%d,"parent":%d,"layer":%q,"op":%q,"client":%d,"start_ns":%d,"end_ns":%d}`+"\n",
				s.id, s.parent, spanNames[s.layer], spanNames[s.op], s.client, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
