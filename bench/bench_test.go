package main

import (
	"bytes"
	"math"
	"path/filepath"
	"regexp"
	"testing"
)

// TestWorkloadsSmall runs every workload at 1/16 size with two timed
// iterations and holds the output to /BENCHMARK.json: the same metric
// names both ways, every value finite, every output check passing, and a
// trace whose child spans lie inside their parents.
func TestWorkloadsSmall(t *testing.T) {
	var bench benchmarkFile
	if err := readJSON("../BENCHMARK.json", &bench); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{} // metric → unit
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, m := range bench.EndToEnd {
		want[m.Name] = m.Unit
	}
	for _, m := range bench.PerLayer {
		want[m.Name] = m.Unit
	}
	for n := range want {
		if !name.MatchString(n) {
			t.Errorf("metric name %q is outside the contract's alphabet", n)
		}
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bench.Workloads), len(workloads))
	}

	out := t.TempDir()
	cfg := runConfig{seed: 1, minIter: 2, setups: 1, endToEnd: true, layers: true, scale: 16, workers: 2, outDir: out}
	res := results{Workloads: map[string]*workloadResult{}}
	for i, w := range workloads {
		if bench.Workloads[i].Name != w.name {
			t.Errorf("BENCHMARK.json workload %d is %q, the program's is %q", i, bench.Workloads[i].Name, w.name)
		}
		r, err := runWorkload(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res.Workloads[w.name] = r
		if !r.Correct || r.Failed != 0 || r.N != 2 {
			t.Errorf("%s: correct=%v failed=%d n=%d: %v", w.name, r.Correct, r.Failed, r.N, r.Failures)
		}
		got := map[string]summary{}
		for n, s := range r.EndToEnd {
			got[n] = s
		}
		for n, s := range r.PerLayer {
			got[n] = s
		}
		for n, unit := range want {
			s, ok := got[n]
			switch {
			case !ok:
				t.Errorf("%s: metric %s of BENCHMARK.json is not in the output", w.name, n)
			case s.Unit != unit:
				t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", w.name, n, s.Unit, unit)
			case math.IsNaN(s.Value) || math.IsInf(s.Value, 0):
				t.Errorf("%s: %s = %v", w.name, n, s.Value)
			}
		}
		for n := range got {
			if _, ok := want[n]; !ok {
				t.Errorf("%s: output metric %s is not in BENCHMARK.json", w.name, n)
			}
		}

		var tf traceFile
		if err := readJSON(filepath.Join(out, "trace-"+w.name+".json"), &tf); err != nil {
			t.Fatal(err)
		}
		if len(tf.Spans) == 0 || tf.Workload != w.name {
			t.Fatalf("%s: trace has %d spans for workload %q", w.name, len(tf.Spans), tf.Workload)
		}
		nested := 0
		for _, s := range tf.Spans {
			if s.EndNS < s.StartNS || s.SelfNS < 0 || s.SelfNS > s.EndNS-s.StartNS {
				t.Errorf("%s: span %d %s runs %d..%d with self time %d", w.name, s.ID, s.Name, s.StartNS, s.EndNS, s.SelfNS)
			}
			if s.Parent == 0 {
				continue
			}
			p := tf.Spans[s.Parent-1]
			if p.ID != s.Parent || s.StartNS < p.StartNS || s.EndNS > p.EndNS {
				t.Errorf("%s: span %d %s is not inside its parent %d %s", w.name, s.ID, s.Name, p.ID, p.Name)
			}
			if p.Parent != 0 {
				nested++
			}
		}
		if nested == 0 {
			t.Errorf("%s: no shard span under a coordinator span", w.name)
		}
	}

	// A results file compared with itself has no change and no spread
	// past a bound (two iterations cannot show one).
	path := filepath.Join(out, "results.json")
	if err := writeJSON(path, res); err != nil {
		t.Fatal(err)
	}
	var table bytes.Buffer
	worse, err := compareFiles(&table, path, path, "../BENCHMARK.json")
	if err != nil || worse {
		t.Fatalf("comparing a results file with itself: worse=%v err=%v\n%s", worse, err, table.String())
	}
	if want := len(workloads)*len(bench.EndToEnd) + 1; bytes.Count(table.Bytes(), []byte("\n")) != want {
		t.Errorf("comparison table has %d lines, want %d:\n%s", bytes.Count(table.Bytes(), []byte("\n")), want, table.String())
	}
}

// TestCompareFlagsRegression: a job_s past its bound is reported worse.
func TestCompareFlagsRegression(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, job float64) string {
		e2e := map[string]summary{}
		for _, n := range []string{"rtf", "first_candidate_s", "live_peak_mb", "recall", "setup_s"} {
			e2e[n] = summarize("x", 1)
		}
		e2e["job_s"] = summarize("s", job, job*1.01, job*1.02)
		path := filepath.Join(dir, name)
		if err := writeJSON(path, results{Workloads: map[string]*workloadResult{"batch-wide": {EndToEnd: e2e}}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b, c := mk("a.json", 1), mk("b.json", 1.03), mk("c.json", 1.2)
	for _, tc := range []struct {
		b     string
		worse bool
	}{{b, false}, {c, true}} {
		var table bytes.Buffer
		worse, err := compareFiles(&table, a, tc.b, "../BENCHMARK.json")
		if err != nil || worse != tc.worse {
			t.Errorf("compare(a, %s): worse=%v err=%v, want worse=%v\n%s", filepath.Base(tc.b), worse, err, tc.worse, table.String())
		}
	}
}

// TestSummarizeMatchesPython pins the quartile arithmetic to
// statistics.quantiles(values, n=4), which the benchmark driver uses.
func TestSummarizeMatchesPython(t *testing.T) {
	s := summarize("s", 9, 1, 4, 7, 2, 8, 3, 10, 6, 5)
	if s.Q1 != 2.75 || s.Value != 5.5 || s.Q3 != 8.25 || s.N != 10 || s.Min != 1 || s.Max != 10 {
		t.Errorf("summarize(1..10) = %+v, want quartiles 2.75, 5.5, 8.25", s)
	}
	if s := summarize("s", 3, 1, 2); s.Q1 != 1 || s.Value != 2 || s.Q3 != 3 {
		t.Errorf("summarize(1,2,3) = %+v, want quartiles 1, 2, 3", s)
	}
}

// TestSelfTimeSubtractsChildUnion: overlapping children are not
// subtracted twice.
func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, StartNS: 10, EndNS: 60},
		{ID: 3, Parent: 1, StartNS: 40, EndNS: 80},
	}}
	if got := tr.finish()[0].SelfNS; got != 30 {
		t.Errorf("self time %d, want 100 − |[10,80)| = 30", got)
	}
}
