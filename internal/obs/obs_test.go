package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"htmtree/internal/htm"
)

// expoLine matches one Prometheus text-exposition sample line.
var expoLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? ([0-9.eE+-]+|NaN|[+-]Inf)$`)

// checkExposition validates every line of a /metrics body: comments are
// HELP/TYPE pairs, sample lines parse, and each sample's family was
// declared by a preceding TYPE line.
func checkExposition(t *testing.T, body string) {
	t.Helper()
	typed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			typed[parts[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			if !strings.HasPrefix(line, "# HELP ") {
				t.Fatalf("unexpected comment %q", line)
			}
			continue
		}
		if !expoLine.MatchString(line) {
			t.Fatalf("unparsable sample line %q", line)
		}
		name := line[:strings.IndexAny(line, "{ ")]
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name,
			"_bucket"), "_sum"), "_count")
		if !typed[name] && !typed[base] {
			t.Fatalf("sample %q has no TYPE declaration", name)
		}
	}
}

func TestWritePromFormat(t *testing.T) {
	o := New(Config{})
	var hits uint64 = 41
	o.Node(L("shard", "0")).Counter("test_hits_total", "Test counter.",
		func(emit Point) { emit(float64(hits), L("path", "fast")) })
	o.Node(L("shard", "1")).Counter("test_hits_total", "Test counter.",
		func(emit Point) { emit(1.5) })
	o.Node().Gauge("test_temp", "Escaping: \"quoted\\path\".",
		func(emit Point) { emit(3, L("v", "a\"b\\c\nd")) })
	th := o.Node().NewThread()
	for i := uint64(1); i <= 100; i++ {
		th.RecordLatency(i * 10)
	}

	var b strings.Builder
	if err := o.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	checkExposition(t, out)

	for _, want := range []string{
		"# TYPE test_hits_total counter",
		`test_hits_total{path="fast",shard="0"} 41`,
		`test_hits_total{shard="1"} 1.5`,
		"# TYPE test_temp gauge",
		`test_temp{v="a\"b\\c\nd"} 3`,
		"# TYPE htmtree_op_latency_ns histogram",
		`htmtree_op_latency_ns_bucket{le="+Inf"} 100`,
		"htmtree_op_latency_ns_count 100",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// Bucket counts must be cumulative and end at the total count.
	lines := strings.Split(out, "\n")
	prev := uint64(0)
	for _, line := range lines {
		if !strings.HasPrefix(line, "htmtree_op_latency_ns_bucket") {
			continue
		}
		var c uint64
		if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &c); err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		if c < prev {
			t.Fatalf("non-cumulative bucket sequence at %q", line)
		}
		prev = c
	}
	if prev != 100 {
		t.Fatalf("last bucket = %d, want 100", prev)
	}
}

func TestVarsSnapshot(t *testing.T) {
	o := New(Config{})
	o.Node().Counter("test_total", "t.", func(emit Point) { emit(7) })
	th := o.Node().NewThread()
	th.RecordLatency(500)
	v := o.Snapshot()
	if v.Schema != SchemaVersion {
		t.Fatalf("schema = %d, want %d", v.Schema, SchemaVersion)
	}
	if got := v.Metrics["test_total"]; len(got) != 1 || got[0].Value != 7 {
		t.Fatalf("test_total = %+v", got)
	}
	hs := v.Histograms["htmtree_op_latency_ns"]
	if len(hs) != 1 || hs[0].Count != 1 || hs[0].Sum != 500 || hs[0].Max != 500 {
		t.Fatalf("latency histogram = %+v", hs)
	}
	var b strings.Builder
	if err := o.WriteVars(&b); err != nil {
		t.Fatal(err)
	}
	var decoded Vars
	if err := json.Unmarshal([]byte(b.String()), &decoded); err != nil {
		t.Fatalf("WriteVars output does not parse: %v", err)
	}
}

// TestGoRuntimeSeries checks the process-wide collector series: both
// appear in /metrics as counters and in /vars, the allocation counter
// moves with allocation, and the cycle counter with a collection.
func TestGoRuntimeSeries(t *testing.T) {
	o := New(Config{})
	read := func() (cycles, bytes float64) {
		v := o.Snapshot()
		c, b := v.Metrics["htmtree_go_gc_cycles_total"], v.Metrics["htmtree_go_heap_alloc_bytes_total"]
		if len(c) != 1 || len(b) != 1 {
			t.Fatalf("/vars runtime series: cycles %+v, heap alloc bytes %+v", c, b)
		}
		return c[0].Value, b[0].Value
	}
	c0, b0 := read()
	if b0 <= 0 {
		t.Fatalf("htmtree_go_heap_alloc_bytes_total = %v, want > 0", b0)
	}
	sink = make([]byte, 1<<20)
	runtime.GC()
	c1, b1 := read()
	if b1-b0 < 1<<20 {
		t.Errorf("heap alloc bytes moved %v after a 1 MiB allocation", b1-b0)
	}
	if c1 <= c0 {
		t.Errorf("gc cycles %v -> %v across runtime.GC()", c0, c1)
	}
	var b strings.Builder
	if err := o.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	checkExposition(t, b.String())
	for _, want := range []string{
		"# TYPE htmtree_go_gc_cycles_total counter",
		"# TYPE htmtree_go_heap_alloc_bytes_total counter",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// sink keeps TestGoRuntimeSeries's allocation from being optimized away.
var sink []byte

func TestEventsChronology(t *testing.T) {
	o := New(Config{EventSample: 1})
	t1 := o.Node().NewThread()
	t2 := o.Node().NewThread()
	// Interleave across threads; timestamps are monotone per put call.
	t1.RareEvent(EvAnnounce, htm.PathFallback, htm.CauseNone, 2, 0)
	t2.RareEvent(EvHelp, htm.PathFast, htm.CauseNone, 0, 0)
	t1.RareEvent(EvAcquire, htm.PathFallback, htm.CauseNone, 2, 0)
	t2.Event(EvAbort, htm.PathMiddle, htm.CauseConflict, 7, 9)
	evs := o.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4: %+v", len(evs), evs)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].TS < evs[i-1].TS {
			t.Fatalf("events not chronological at %d: %+v", i, evs)
		}
	}
	kinds := map[EventKind]Event{}
	for _, ev := range evs {
		kinds[ev.Kind] = ev
	}
	ab := kinds[EvAbort]
	if ab.KindName != "abort" || ab.PathName != "middle" || ab.CauseName != "conflict" ||
		ab.A != 7 || ab.B != 9 || ab.Thread != t2.ID() {
		t.Fatalf("abort event decoded wrong: %+v", ab)
	}
	if an := kinds[EvAnnounce]; an.A != 2 || an.CauseName != "" {
		t.Fatalf("announce event decoded wrong: %+v", an)
	}
}

func TestEventSamplingAndWrap(t *testing.T) {
	o := New(Config{EventSample: 8, EventBuffer: 4})
	th := o.Node().NewThread()
	for i := 0; i < 64; i++ {
		th.Event(EvOp, htm.PathFast, htm.CauseNone, uint64(i), 0)
	}
	if got := len(o.Events()); got != 4 {
		// 64/8 = 8 sampled, ring keeps the last 4.
		t.Fatalf("got %d events, want ring capacity 4", got)
	}
	for i := 0; i < 10; i++ {
		th.RareEvent(EvQuiesce, 0, htm.CauseNone, uint64(i), 0)
	}
	evs := o.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events after wrap, want 4", len(evs))
	}
	// The retained window is the newest events, in order.
	for i, ev := range evs {
		if want := uint64(6 + i); ev.A != want {
			t.Fatalf("event %d: A = %d, want %d (%+v)", i, ev.A, want, evs)
		}
	}
}

func TestDisabledCaptures(t *testing.T) {
	o := New(Config{LatencySample: -1, EventSample: -1, EventBuffer: -1})
	th := o.Node().NewThread()
	if th.MaybeTime() {
		t.Fatal("MaybeTime sampled with latency capture disabled")
	}
	th.Event(EvOp, htm.PathFast, htm.CauseNone, 0, 0)
	th.RareEvent(EvQuiesce, 0, htm.CauseNone, 0, 0)
	if evs := o.Events(); len(evs) != 0 {
		t.Fatalf("recorder disabled but drained %d events", len(evs))
	}
	if h := o.LatencySnapshot(); h.Count() != 0 {
		t.Fatalf("latency disabled but histogram holds %d samples", h.Count())
	}
}

func TestRecordingAllocFree(t *testing.T) {
	o := New(Config{EventSample: 1})
	th := o.Node().NewThread()
	if n := testing.AllocsPerRun(200, func() {
		if th.MaybeTime() {
			th.RecordLatency(123)
		}
		th.Event(EvOp, htm.PathFast, htm.CauseNone, 0, 0)
		th.RareEvent(EvAcquire, htm.PathFallback, htm.CauseNone, 1, 0)
	}); n != 0 {
		t.Fatalf("recording allocates %v/op, want 0", n)
	}
}

func TestServeEndpoints(t *testing.T) {
	o := New(Config{EventSample: 1})
	th := o.Node().NewThread()
	th.RareEvent(EvAcquire, htm.PathFallback, htm.CauseNone, 1, 0)
	th.RecordLatency(250)

	var live atomic.Pointer[Obs]
	live.Store(o)
	srv, err := Serve("127.0.0.1:0", live.Load)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	checkExposition(t, body)
	if !strings.Contains(body, "htmtree_recorder_threads 1") {
		t.Fatalf("/metrics missing recorder gauge:\n%s", body)
	}

	code, body = get("/vars")
	if code != http.StatusOK {
		t.Fatalf("/vars status %d", code)
	}
	var v Vars
	if err := json.Unmarshal([]byte(body), &v); err != nil || v.Schema != SchemaVersion {
		t.Fatalf("/vars bad body (err %v, schema %d):\n%s", err, v.Schema, body)
	}

	code, body = get("/events")
	if code != http.StatusOK {
		t.Fatalf("/events status %d", code)
	}
	var dump struct {
		Schema int     `json:"schema"`
		Events []Event `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatalf("/events does not parse: %v\n%s", err, body)
	}
	if len(dump.Events) != 1 || dump.Events[0].KindName != "acquire" {
		t.Fatalf("/events = %+v, want one acquire", dump.Events)
	}

	if code, _ := get("/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", code)
	}

	live.Store(nil)
	if code, body := get("/metrics"); code != http.StatusServiceUnavailable {
		t.Fatalf("nil source: status %d body %q", code, body)
	}
}
