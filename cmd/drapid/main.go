// Command drapid runs single-pulse jobs on a simulated YARN cluster
// through the public engine API. Two modes share the same streaming
// output path:
//
// Identify (default): submit SPE data and cluster files (produced by
// cmd/spgen) as an IdentifyJob and consume the candidate stream as
// stage-3 key groups complete.
//
//	drapid -data data/PALFA_spe.csv -clusters data/PALFA_clusters.csv \
//	       -executors 10 -out ml.csv
//
// Detect (-detect): start one step earlier, from a raw SIGPROC
// filterbank (cmd/spgen -filterbank writes ground-truthed synthetic
// ones): dedisperse over the trial-DM grid — two-stage subband
// dedispersion by default, with -plan brute selecting the one-stage
// oracle kernel — then matched-filter, cluster, and identify, end to end
// in one submission. The summary line reports which plan actually ran.
//
//	drapid -detect obs.fil -dm-max 300 -dm-step 1 -threshold 6 -out ml.csv
//
// With -block N the filterbank is streamed in N-sample gulps instead of
// staged whole (DESIGN.md §7): peak memory is bounded by the gulp size —
// a multi-hour drift scan searches in the same footprint as a minutes-long
// pointing — and candidates are identified segment by segment while the
// file is still being read.
//
//	drapid -detect drift.fil -block 65536 -out ml.csv
//
// The output CSV is written in canonical sorted order so it stays
// byte-identical for any -workers setting (stream arrival order depends
// on scheduling). Stage tasks really execute on a host worker pool
// (-workers sets its width, 0 = all cores; -parallel=false forces the
// serial reference path), while -executors sizes the *simulated* cluster
// whose elapsed time the cost model reports.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"drapid"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("drapid: ")
	var (
		dataPath    = flag.String("data", "", "SPE data CSV (identify mode)")
		clusterPath = flag.String("clusters", "", "cluster CSV (identify mode)")
		detectPath  = flag.String("detect", "", "SIGPROC filterbank to search (detect mode)")
		dmMin       = flag.Float64("dm-min", 0, "detect: lowest trial DM, pc/cm^3")
		dmMax       = flag.Float64("dm-max", 300, "detect: highest trial DM, pc/cm^3")
		dmStep      = flag.Float64("dm-step", 1, "detect: trial DM spacing, pc/cm^3")
		threshold   = flag.Float64("threshold", 6, "detect: matched-filter SNR threshold")
		noZeroDM    = flag.Bool("no-zerodm", false, "detect: disable the zero-DM broadband-RFI filter")
		plan        = flag.String("plan", "auto", "detect: dedispersion plan: auto, subband, or brute")
		block       = flag.Int("block", 0, "detect: stream the filterbank in gulps of this many samples (bounded memory; 0 = the whole file as one gulp)")
		top         = flag.Int("top", 10, "detect: print the N best sifted candidate groups and their repeat sources (0 disables sifting)")
		catalogPath = flag.String("catalog", "", "detect: known-source catalog CSV (name,dm,period_s) for sift matching")
		executors   = flag.Int("executors", 10, "Spark executors to allocate (paper testbed max: 22)")
		partsCore   = flag.Int("partitions", 32, "hash partitions per core")
		workers     = flag.Int("workers", 0, "host worker goroutines per stage (0 = all cores)")
		parallel    = flag.Bool("parallel", true, "execute stage tasks concurrently (false forces the serial reference path)")
		outPath     = flag.String("out", "ml.csv", "output ML records CSV")
		stats       = flag.Bool("stats", false, "print the per-stage pipeline breakdown (wall seconds, records, bytes)")
		freq        = flag.Float64("freq", 1.4, "survey centre frequency, GHz (feature extraction, identify mode)")
		band        = flag.Float64("band", 300, "survey bandwidth, MHz (feature extraction, identify mode)")
	)
	flag.Parse()
	if *detectPath == "" && (*dataPath == "" || *clusterPath == "") {
		flag.Usage()
		os.Exit(2)
	}

	w := *workers
	if !*parallel {
		w = 1
	}
	engine, err := drapid.New(
		drapid.WithWorkers(w),
		drapid.WithExecutors(*executors),
		drapid.WithPartitionsPerCore(*partsCore),
		drapid.WithSimClock(true),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer engine.Close()

	var job *drapid.Job
	if *detectPath != "" {
		spec := drapid.DetectJob{
			DMMin:        *dmMin,
			DMMax:        *dmMax,
			DMStep:       *dmStep,
			Threshold:    *threshold,
			NoZeroDM:     *noZeroDM,
			Plan:         *plan,
			BlockSamples: *block,
			Sift:         drapid.Sift{Top: *top, Disable: *top == 0},
		}
		if *catalogPath != "" {
			cat, err := os.ReadFile(*catalogPath)
			if err != nil {
				log.Fatal(err)
			}
			spec.Sift.Catalog = string(cat)
		}
		if *block > 0 {
			// Stream the file instead of staging it: peak memory stays
			// bounded by the gulp size however long the observation is.
			f, err := os.Open(*detectPath)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			spec.FilterbankStream = f
		} else {
			raw, err := os.ReadFile(*detectPath)
			if err != nil {
				log.Fatal(err)
			}
			spec.Filterbank = raw
		}
		var err error
		job, err = engine.SubmitDetect(context.Background(), spec)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		dataLines, err := readLines(*dataPath)
		if err != nil {
			log.Fatal(err)
		}
		clusterLines, err := readLines(*clusterPath)
		if err != nil {
			log.Fatal(err)
		}
		job, err = engine.Submit(context.Background(), drapid.IdentifyJob{
			Data:     dataLines,
			Clusters: clusterLines,
			FreqGHz:  *freq,
			BandMHz:  *band,
		})
		if err != nil {
			log.Fatal(err)
		}
	}

	// Consume the candidate stream as key groups complete, then write the
	// file in canonical sorted order: stream order depends on scheduling,
	// and the CLI's output must stay byte-identical for any -workers.
	var lines []string
	for c, err := range job.Results() {
		if err != nil {
			log.Fatal(err)
		}
		lines = append(lines, c.CSV())
	}
	sort.Strings(lines)

	f, err := os.Create(*outPath)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	out := bufio.NewWriter(f)
	fmt.Fprintln(out, drapid.CandidateHeader)
	for _, line := range lines {
		fmt.Fprintln(out, line)
	}
	if err := out.Flush(); err != nil {
		log.Fatal(err)
	}
	streamed := len(lines)

	res, err := job.Wait(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	if *detectPath != "" {
		// Detect jobs identify in memory: no simulated cluster to report.
		log.Printf("detect: %d raw events above %.1f sigma in %.3fs, dedispersion plan %s, single pulses=%d dropped=%d",
			res.Detections, *threshold, res.DetectSeconds, res.Plan, res.Records, res.RecordsDropped)
		printTop(res)
	} else {
		log.Printf("executors=%d single pulses=%d simulated elapsed=%.3fs wall=%.3fs", *executors, res.Records, res.SimSeconds, res.WallSeconds)
		log.Printf("stages=%d tasks=%d shuffle=%.1fMB spill=%.1fMB dropped=%d",
			res.RDDStages, res.Tasks, float64(res.ShuffleBytes)/1e6, float64(res.SpillBytes)/1e6, res.RecordsDropped)
	}
	if *stats {
		printStages(res.Stages)
	}
	log.Printf("streamed %d ML records to %s", streamed, *outPath)
}

// stageOrder is the pipeline order for the -stats table; stages the job
// never ran are skipped, unknown stages print after the known ones.
var stageOrder = []string{"ingest", "zerodm", "dedisperse", "normalise", "boxcar", "cluster", "classify", "sift"}

// printStages renders the per-stage breakdown (Result.Stages): wall
// seconds — which partition the job's detect time — plus record and
// byte volumes where the stage reports them.
func printStages(stages map[string]drapid.StageStats) {
	if len(stages) == 0 {
		return
	}
	log.Printf("per-stage breakdown:")
	log.Printf("  %-11s %9s %6s %10s %10s %10s", "stage", "wall_s", "calls", "rec_in", "rec_out", "bytes")
	seen := make(map[string]bool, len(stages))
	var total float64
	emit := func(name string) {
		st, ok := stages[name]
		if !ok || seen[name] {
			return
		}
		seen[name] = true
		total += st.WallSeconds
		log.Printf("  %-11s %9.3f %6d %10d %10d %10d", name, st.WallSeconds, st.Calls, st.RecordsIn, st.RecordsOut, st.Bytes)
	}
	for _, name := range stageOrder {
		emit(name)
	}
	rest := make([]string, 0, len(stages))
	for name := range stages {
		if !seen[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	for _, name := range rest {
		emit(name)
	}
	log.Printf("  %-11s %9.3f", "total", total)
}

// printTop renders the ranked sifted view: the top candidate groups in
// canonical order, then the cross-matched repeat sources.
func printTop(res drapid.Result) {
	if len(res.TopCandidates) == 0 {
		return
	}
	log.Printf("top %d sifted candidates:", len(res.TopCandidates))
	log.Printf("  %-4s %-9s %8s %8s %9s %4s %6s %s", "#", "rank", "snr", "dm", "time", "n", "src", "known")
	for i, c := range res.TopCandidates {
		src := "-"
		if c.Source > 0 {
			src = fmt.Sprintf("S%d", c.Source)
		}
		log.Printf("  %-4d %-9s %8.2f %8.2f %9.4f %4d %6s %s", i+1, c.Rank, c.SNR, c.DM, c.Time, c.N, src, c.Known)
	}
	for _, s := range res.Sources {
		known := s.Known
		if known == "" {
			known = "unmatched"
		}
		log.Printf("source S%d: %d detection(s) at DM %.2f, best SNR %.2f at t=%.4fs (%s)",
			s.ID, s.Detections, s.DM, s.BestSNR, s.BestTime, known)
	}
}

func readLines(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	return lines, sc.Err()
}
