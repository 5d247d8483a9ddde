package drapid

import (
	"fmt"
	"log/slog"
	"slices"

	"drapid/internal/obs"
	"drapid/internal/sps"
)

// This file is the public face of the observability layer (DESIGN.md
// §10): the metrics/logging engine options, the per-job stage breakdown
// types, and the fold that turns the frontend's raw stage clock into
// wall times that partition a job's elapsed seconds.

// StageStats is one pipeline stage's share of a job: wall seconds (the
// per-job stage walls partition the job's elapsed detect time), span
// count, and record/byte volumes. Keys of Result.Stages and
// Progress.Stages are the stage names ingest, zerodm, dedisperse,
// normalise, boxcar, cluster, classify and sift.
type StageStats = obs.StageStats

// MetricsRegistry is the engine's metrics registry: counters, gauges
// and histograms in Prometheus text exposition format. drapidd serves
// the engine's registry at GET /metrics.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry builds an isolated registry (tests, embedded
// engines). Engines default to the process-global registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// WithMetrics points the engine at a metrics registry. The default is
// the process-global registry every drapid component shares; pass a
// fresh one to isolate an engine's series (tests, multi-engine
// processes).
func WithMetrics(reg *MetricsRegistry) Option {
	return func(c *config) error {
		if reg == nil {
			return fmt.Errorf("drapid: WithMetrics requires a non-nil registry")
		}
		c.metrics = reg
		return nil
	}
}

// WithLogger supplies the structured logger for job lifecycle events
// (submitted / started / finished, with job ID and kind) and warnings
// such as dropped records. The default engine logs nowhere — a library
// stays silent unless asked; drapidd passes its process logger.
func WithLogger(l *slog.Logger) Option {
	return func(c *config) error {
		if l == nil {
			return fmt.Errorf("drapid: WithLogger requires a non-nil logger")
		}
		c.logger = l
		return nil
	}
}

// MetricsRegistry exposes the registry the engine records into, so a
// server can mount it (obs.Handler) and tests can assert on series.
func (e *Engine) MetricsRegistry() *MetricsRegistry { return e.metrics }

// apportionedStages are the concurrent frontend stages whose busy seconds
// are apportioned onto the fan-out wall: they run interleaved across
// worker goroutines, so their summed task time exceeds elapsed time and
// only their *shares* of the measured wall are comparable. zerodm is one
// of them on every path: both search drivers fuse the filter into their
// parallel staging tiles, and from the coordinator's clock every
// shard-side stage of a fleet job is concurrent.
var apportionedStages = []string{sps.StageZeroDM, sps.StageDedisperse, sps.StageNormalise, sps.StageBoxcar}

// applyDetectStages folds the frontend's per-stage seconds into the job
// trace and rescales the kernel stages onto whatever part of totalSecs
// the sequential stages (driver spans already in the trace, plus the
// frontend's sequential walls) do not cover. After the fold the trace's
// stage walls sum to totalSecs exactly — the Result.Stages contract the
// e2e tests pin against DetectSeconds. The three search kernels also get
// their volumes from the search's own counters: one call per dedispersed
// trial, records in dedispersed-series samples (boxcar's output is the
// events it emitted), bytes the float64 series each kernel streamed.
func applyDetectStages(tr *obs.Trace, stats sps.Stats, totalSecs float64) {
	if tr == nil {
		return
	}
	for name, secs := range stats.StageSeconds {
		tr.AddSeconds(name, secs)
	}
	series := obs.StageStats{Calls: int64(stats.Trials), RecordsIn: stats.Samples, RecordsOut: stats.Samples, Bytes: 8 * stats.Samples}
	tr.Add(sps.StageDedisperse, series)
	tr.Add(sps.StageNormalise, series)
	series.RecordsOut = int64(stats.Events)
	tr.Add(sps.StageBoxcar, series)
	var seq float64
	for name, st := range tr.Snapshot() {
		if !slices.Contains(apportionedStages, name) {
			seq += st.WallSeconds
		}
	}
	tr.Apportion(totalSecs-seq, apportionedStages...)
}
