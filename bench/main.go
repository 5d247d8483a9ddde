// Command bench is drapid's end-to-end and per-layer benchmark: four
// workloads driven through the public engine API in a closed loop, their
// outputs checked, and every layer timed from outside. README.md has the
// metric tables and how to read the output; /BENCHMARK.json is the
// machine-readable contract. Run it from the repository root:
//
//	bash bench/run.sh -seed 1
//	bash bench/run.sh -workload stream-long -seconds 10 -trace 0
//	bash bench/run.sh -compare a/results.json b/results.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// results is the on-disk form of one invocation (results.json).
type results struct {
	Header    header                     `json:"header"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// header records what the numbers were measured on.
type header struct {
	Commit     string            `json:"commit"`
	GoVersion  string            `json:"go_version"`
	NProc      int               `json:"nproc"`
	Workers    int               `json:"workers"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Env        map[string]string `json:"env,omitempty"` // GOGC, GOMEMLIMIT when set
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Started    string            `json:"started"`
}

func main() {
	name := flag.String("workload", "all", "workload to run: batch-wide, stream-long, fleet-shards, identify-survey or all")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	secs := flag.Float64("seconds", 10, "length of each workload's timed pass")
	trace := flag.Int("trace", 2, "0: end-to-end metrics only; 1: per-layer metrics (the traced run) only; 2: both")
	out := flag.String("out", "bench/out", "directory for results.json, trace-<workload>.json and temporary inputs")
	compare := flag.Bool("compare", false, "compare two results files: -compare a.json b.json")
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two results files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1), "BENCHMARK.json")
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 || *trace < 0 || *trace > 2 || *secs <= 0 {
		flag.Usage()
		os.Exit(2)
	}

	// W = min(nproc, 4) engine workers on as many processors: the shape
	// the numbers of README.md were taken in.
	w := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(w)
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	cfg := runConfig{
		seed: *seed, seconds: *secs, minIter: 9, setups: 3,
		endToEnd: *trace != 1, layers: *trace != 0,
		scale: 1, workers: w, outDir: *out,
	}
	if !cfg.endToEnd {
		cfg.setups = 1 // setup_s is an end-to-end metric
	}
	res := results{
		Header: header{
			Commit: commit(), GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
			Workers: w, GOMAXPROCS: w, Env: map[string]string{}, Seed: *seed, Seconds: *secs,
			Started: time.Now().UTC().Format(time.RFC3339),
		},
		Workloads: map[string]*workloadResult{},
	}
	for _, k := range []string{"GOGC", "GOMEMLIMIT"} {
		if v, ok := os.LookupEnv(k); ok {
			res.Header.Env[k] = v
		}
	}
	fmt.Printf("drapid bench: commit %s, %s, nproc %d, workers %d, seed %d, timed pass %gs\n",
		res.Header.Commit, res.Header.GoVersion, res.Header.NProc, w, *seed, *secs)

	ok, ran := true, false
	for _, wl := range workloads {
		if *name != "all" && *name != wl.name {
			continue
		}
		ran = true
		r, err := runWorkload(wl, cfg)
		if err != nil {
			fatal(err)
		}
		res.Workloads[wl.name] = r
		ok = ok && r.Correct
		if err := writeJSON(*out+"/results.json", res); err != nil {
			fatal(err)
		}
		r.print(wl.name)
	}
	if !ran {
		fatal(fmt.Errorf("no workload named %q", *name))
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// commit is the VCS revision the binary was built from, when the build
// had one to stamp.
func commit() string {
	rev, dirty := "unknown", ""
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value[:min(12, len(s.Value))]
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
	}
	return rev + dirty
}

// print writes the workload's metrics by name with their units, then —
// as the last line — the one JSON object the benchmark driver reads.
func (r *workloadResult) print(name string) {
	fmt.Printf("\n== %s: n=%d after %d warm-up, %d attempted, %d failed", name, r.N, r.Warmup, r.Attempted, r.Failed)
	for _, p := range []string{"setup", "reference", "warmup", "timed", "memory", "layers"} {
		if s, ok := r.PassSeconds[p]; ok {
			fmt.Printf(", %s %.1fs", p, s)
		}
	}
	fmt.Println()
	type line struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool            `json:"correct"`
		Attempted int             `json:"attempted"`
		Failed    int             `json:"failed"`
		Metrics   map[string]line `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]line{}}
	for _, set := range []map[string]summary{r.EndToEnd, r.PerLayer} {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			s := set[n]
			fmt.Printf("%-32s %14.6g %-8s", n, s.Value, s.Unit)
			if s.N > 1 {
				fmt.Printf(" n=%d q1=%.6g q3=%.6g min=%.6g max=%.6g", s.N, s.Q1, s.Q3, s.Min, s.Max)
			}
			fmt.Println()
			last.Metrics[n] = line{s.Value, s.Unit}
		}
	}
	data, err := json.Marshal(last)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(data))
}
