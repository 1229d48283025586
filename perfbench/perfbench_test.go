package main

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// runShort runs one short benchmark run in process and returns its exit
// code, result line and report.
func runShort(t *testing.T, workload, inject string) (int, result, report) {
	t.Helper()
	var out bytes.Buffer
	code := execute(options{workload: workload, seed: 7, seconds: 1, commit: "test", source: "test",
		warm: 100 * time.Millisecond, reps: 1, inject: inject}, &out, io.Discard)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("%s/%s: want report and result lines, got %q", workload, inject, out.String())
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("result line: %v", err)
	}
	var rep map[string]report
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &rep); err != nil {
		t.Fatalf("report line: %v", err)
	}
	return code, res, rep["report"]
}

func TestCleanRunPasses(t *testing.T) {
	code, res, rep := runShort(t, "bst-light", "")
	if code != 0 || !res.Correct || res.Failed != 0 || rep.Metrics["failed_ops_frac"] != 0 {
		t.Fatalf("clean run: exit %d, result %+v, checks %v", code, res, rep.Checks)
	}
	for _, n := range endToEnd {
		if m, ok := res.Metrics[n]; !ok || m.Value <= 0 || m.Unit != unitOf(n) {
			t.Errorf("metric %s = %+v, want a positive value in %s", n, m, unitOf(n))
		}
	}
}

// TestNegativeControls corrupts one kind of result between the call and
// its check and expects the run to fail: the checks can detect a failure.
func TestNegativeControls(t *testing.T) {
	for _, tc := range []struct{ workload, inject, check string }{
		{"bst-light", "tally", "key_sum"},
		{"abtree-heavy", "rq-order", "per_op"},
		{"abtree-heavy", "rq-bounds", "per_op"},
		{"sharded-analytics", "agg-err", "per_op"},
		{"sharded-analytics", "agg-minmax", "per_op"},
	} {
		t.Run(tc.inject, func(t *testing.T) {
			code, res, rep := runShort(t, tc.workload, tc.inject)
			if code == 0 || res.Correct {
				t.Fatalf("exit %d, correct %v: a corrupted result passed", code, res.Correct)
			}
			if res.Failed == 0 || rep.Metrics["failed_ops_frac"] <= 0 {
				t.Fatalf("failed %d, failed_ops_frac %v: want both raised", res.Failed, rep.Metrics["failed_ops_frac"])
			}
			if _, ok := rep.Checks[tc.check]; !ok {
				t.Fatalf("checks %v: want %s to fail", rep.Checks, tc.check)
			}
		})
	}
}

func TestInputDigest(t *testing.T) {
	for _, w := range workloads {
		a, b, c := streamDigest(w, 1), streamDigest(w, 1), streamDigest(w, 2)
		if a != b {
			t.Errorf("%s: seed 1 gives digests %s and %s", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 give the same digest %s", w.name, a)
		}
	}
}

// TestOwnGenerator keeps the inputs independent of program code: the
// benchmark may not import the repository's workload generator, its PRNG
// or its experiment driver.
func TestOwnGenerator(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		af, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range af.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if p == "htmtree/internal/workload" || p == "htmtree/internal/xrand" || strings.HasPrefix(p, "htmtree/cmd/") {
				t.Errorf("%s imports %s", f, p)
			}
		}
	}
}

func TestCheckClients(t *testing.T) {
	if checkClients(2, 1) == nil {
		t.Error("2 clients on 1 CPU: want refusal")
	}
	if err := checkClients(2, 2); err != nil {
		t.Errorf("2 clients on 2 CPUs: %v", err)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program's metric and
// workload names in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloads[i].name)
		}
	}
	for _, set := range []struct {
		listed []struct{ Name, Unit string }
		names  []string
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(set.listed) != len(set.names) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program reports %d", len(set.listed), len(set.names))
		}
		for i, m := range set.listed {
			if m.Name != set.names[i] || m.Unit != unitOf(m.Name) {
				t.Errorf("metric %d: %s [%s] vs %s [%s]", i, m.Name, m.Unit, set.names[i], unitOf(set.names[i]))
			}
		}
	}
}

func TestHistResolution(t *testing.T) {
	prev := -1
	for v := uint64(0); v < 1<<30; v = v*5/4 + 1 {
		b := bucketOf(v)
		if b < prev {
			t.Fatalf("bucketOf(%d) = %d < %d", v, b, prev)
		}
		prev = b
		if mid := bucketMid(b); mid < float64(v)*0.997-1 || mid > float64(v)*1.003+1 {
			t.Fatalf("bucketMid(bucketOf(%d)) = %v", v, mid)
		}
	}
}
