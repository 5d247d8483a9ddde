// Command benchguard is the CI perf-regression gate: it compares a fresh
// benchmark artifact against the checked-in baseline and exits non-zero
// when any tracked series regressed past the tolerance.
//
//	benchguard -baseline BENCH_baseline.json -current /tmp/bench_ci.json
//
// The default tracked series are the repo's scaling contracts: the
// dedispersion kernel throughput, the search throughput and peak-alloc
// of BenchmarkSearch's two modes — one search driver, mode=batch being its
// one-gulp case and mode=stream its fixed gulps, whose flat peak-alloc is
// the bounded-memory contract — and the fleet data plane's bytes-on-wire
// and event-codec throughput. Regenerate the
// baseline with the same invocations CI uses (the bench-smoke step)
// after an intentional perf change:
//
//	BENCH_JSON=$PWD/BENCH_baseline.json go test -short -run xxx \
//	    -bench 'Dedisperse|Boxcar|Search' -benchtime 1x ./internal/sps
//	BENCH_JSON=$PWD/BENCH_baseline.json go test -short -run xxx \
//	    -bench 'Fleet' -benchtime 1x ./internal/fleet
//
// (BENCH_JSON must be absolute: go test runs the package in its own
// directory, and a relative path would land the artifact there.)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"drapid/internal/benchjson"
)

// defaultSeries are the tracked patterns (path.Match syntax, comma-joined
// for the flag default): kernel throughput, end-to-end search throughput
// in both modes, the per-mode peak allocation, and the fleet data plane
// (bytes-on-wire per sharded job, event codec throughput).
const defaultSeries = "BenchmarkDedisperse/workers=*," +
	"BenchmarkDedisperse/kernel=*," +
	"BenchmarkDedisperse/plan=*," +
	"BenchmarkSearch/mode=*," +
	"BenchmarkBoxcar/*," +
	"BenchmarkFleetWire/proto=*," +
	"BenchmarkFleetCodec/codec=*"

func main() {
	baseline := flag.String("baseline", "BENCH_baseline.json", "checked-in baseline artifact")
	current := flag.String("current", benchjson.DefaultPath(), "freshly generated artifact to check")
	series := flag.String("series", defaultSeries, "comma-separated tracked name patterns (path.Match syntax)")
	tol := flag.Float64("tolerance", 15, "allowed regression in percent")
	flag.Parse()

	base, err := benchjson.ReadDocument(*baseline)
	if err != nil {
		fatal(err)
	}
	cur, err := benchjson.ReadDocument(*current)
	if err != nil {
		fatal(err)
	}
	patterns := strings.Split(*series, ",")
	regs, err := benchjson.Compare(base, cur, patterns, *tol)
	if err != nil {
		fatal(err)
	}
	tracked := 0
	for _, e := range base.Entries {
		for _, p := range patterns {
			if ok, _ := benchjson.MatchName(p, e.Name); ok {
				tracked++
				break
			}
		}
	}
	if tracked == 0 {
		fatal(fmt.Errorf("benchguard: no baseline entries match the tracked series — check -series against %s", *baseline))
	}
	if len(regs) == 0 {
		fmt.Printf("benchguard: %d tracked series within %.0f%% of baseline\n", tracked, *tol)
		return
	}
	fmt.Fprintf(os.Stderr, "benchguard: %d regression(s) past %.0f%%:\n", len(regs), *tol)
	for _, r := range regs {
		fmt.Fprintln(os.Stderr, " ", r)
	}
	os.Exit(1)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
