// Package drapid is a from-scratch Go reproduction of "Scalable Solutions
// for Automated Single Pulse Identification and Classification in Radio
// Astronomy" (Devine, Goseva-Popstojanova & Pang, ICPP 2018) — and the
// public API over it.
//
// The package exposes the two halves of the paper as services rather than
// one-shot batch runs (DESIGN.md §4):
//
//   - Identification: New builds an Engine (functional options:
//     WithWorkers, WithSimClock, WithExecutors, WithFS, ...); Engine.Submit
//     starts an IdentifyJob and returns a *Job handle with Progress,
//     Cancel, Wait, and a streaming Results iterator that yields
//     candidates as stage-3 key groups complete. Any number of jobs share
//     one engine's worker pool fairly.
//
//   - Detection: Engine.SubmitDetect starts a DetectJob one stage earlier
//     in the physical pipeline — raw time–frequency data (a SIGPROC
//     filterbank, or a SynthSpec observation with injected ground truth)
//     is dedispersed over a trial-DM grid on the same worker pool,
//     matched-filtered, clustered and identified end to end, in memory,
//     streaming the same Candidate records (DESIGN.md §5). A sifting layer ranks
//     the resulting cluster groups, folds repeat detections into
//     sources, and matches a known-source catalog; Result.TopCandidates
//     and Job.Top expose the ranked view (DESIGN.md §8).
//
//   - Classification: NewClassifier wraps any of the six Table 5 learners
//     behind Train / Predict, and Save / LoadClassifier persist a trained
//     model as JSON so it outlives the process.
//
// cmd/drapidd serves both over HTTP (job submission, progress, NDJSON
// candidate streaming, classification against a loaded model); cmd/drapid,
// cmd/spclass, cmd/spgen and cmd/repro are the CLI entry points.
// bench_test.go regenerates every figure and table of the paper's
// evaluation.
//
// # Package map
//
// The implementation lives under internal/ — twenty packages, each of
// whose godoc names the paper section or research question it implements
// (DESIGN.md §1.1 is the authoritative inventory):
//
//   - Data model: spe (single-pulse events, observation keys, CSV
//     interchange), dmgrid (trial dispersion-measure grids with
//     DDplan-style widening), synth (physics-guided synthetic survey
//     generator with retained ground truth).
//
//   - Search frontend (DESIGN.md §5–§6): sps — SIGPROC filterbank
//     ingestion, synthetic observations, zero-DM RFI filtering,
//     dedispersion (two-stage subband by default, brute force as the
//     oracle), and boxcar matched filtering.
//
//   - Identification (DESIGN.md §1.2): dbscan (customized DM-vs-time
//     clustering), core (Algorithm 1's trend search), features (the 22
//     characteristic features), pipeline (the four-stage workflow both
//     drivers share), sift (candidate ranking, repeat-source
//     cross-matching, known-source catalogs).
//
//   - Execution (DESIGN.md §2): rdd (the Spark-like dataset engine and
//     the real concurrent executor), hdfs and yarn (simulated storage
//     and allocation), des (discrete-event accounting for the simulated
//     clocks), rapidmt (the multithreaded single-machine baseline).
//
//   - Scale-out (DESIGN.md §9): fleet — shard planning over DM-trial
//     ranges or time slices, the coordinator with heartbeat-based
//     worker-loss recovery and bounded resubmission, the HTTP shard
//     protocol drapidd -worker serves, and the job journal behind
//     Engine.Recover. WithFleetWorkers / WithRemoteWorkers enable it;
//     DetectJob.Shards splits the job.
//
//   - Observability (DESIGN.md §10): obs — the metrics registry
//     (counters, gauges, histograms; Prometheus text exposition at
//     drapidd's GET /metrics), the per-job stage tracing behind
//     Result.Stages/Progress.Stages, and the HTTP instrumentation
//     middleware. WithMetrics / WithLogger wire an engine to a
//     registry and a structured logger.
//
//   - Classification: ml and its subpackages (datasets, the six Table 5
//     learners, ALM labeling, SMOTE, feature selection, evaluation).
//
//   - Evaluation: experiments (regenerates every figure and table),
//     plot (text-mode candidate plots), benchjson (the machine-readable
//     drapid-bench/v1 benchmark artifact).
package drapid
