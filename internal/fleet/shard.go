package fleet

import (
	"context"
	"fmt"
	"sync"

	"drapid/internal/obs"
	"drapid/internal/rdd"
	"drapid/internal/spe"
	"drapid/internal/sps"
)

// SearchSpec is the search parameterisation every shard of one job
// shares: the knobs of sps.Config that do not depend on the shard split.
type SearchSpec struct {
	// Widths, Threshold, NormWindow, ZeroDM and Plan mirror the fields of
	// sps.Config / drapid.DetectJob. The wire names are the
	// coordinator↔worker protocol, kept as they are so mixed-version
	// fleets interoperate. An empty but present Widths survives a round
	// trip (omitzero).
	Widths     []int   `json:"widths,omitzero"`
	Threshold  float64 `json:"threshold,omitempty"`
	NormWindow int     `json:"norm_window,omitempty"`
	ZeroDM     bool    `json:"zero_dm,omitempty"`
	Plan       string  `json:"plan,omitempty"`
}

// Config maps the knobs onto the search of the trial grid dms on exec:
// the one translation from a job's search knobs to sps.Config, shared by
// the engine's own searches and RunShard. It fails only on an unknown
// dedispersion plan.
func (s SearchSpec) Config(dms []float64, exec rdd.ExecConfig) (sps.Config, error) {
	kind, err := sps.ParsePlanKind(s.Plan)
	if err != nil {
		return sps.Config{}, err
	}
	return sps.Config{
		DMs:        dms,
		Widths:     s.Widths,
		Threshold:  s.Threshold,
		NormWindow: s.NormWindow,
		ZeroDM:     s.ZeroDM,
		Plan:       sps.DedispersePlan{Kind: kind},
		Exec:       exec,
	}, nil
}

// ShardSpec is one unit of fleet work: a restricted single-pulse search
// that any worker can execute from the spec alone (the RDD-lineage
// property resubmission relies on — reruns are pure recomputations).
type ShardSpec struct {
	// Job and Index locate the shard: Index is the merge position among
	// the job's Shards shards.
	Job    string `json:"job"`
	Index  int    `json:"index"`
	Shards int    `json:"shards"`
	// Attempt counts dispatches of this shard (first dispatch is 1); the
	// coordinator sets it.
	Attempt int `json:"attempt,omitempty"`
	// Filterbank is the whole raw SIGPROC observation, the same bytes in
	// every shard of a job. It never crosses the wire: a Local worker
	// reads it in memory, and a Remote one uploads it as the blob
	// FilterbankDigest names, which the worker resolves from its cache
	// (DESIGN.md §12).
	Filterbank []byte `json:"-"`
	// FilterbankDigest is the content address (lowercase hex SHA-256) of
	// Filterbank. Planning always sets it; a spec shipped by digest alone
	// is only executable on a worker whose blob cache holds the bytes. A
	// Local worker takes it as the bytes' identity without hashing them:
	// its staging slot reuses the staging of an earlier shard that named
	// the same digest.
	FilterbankDigest string `json:"filterbank_digest,omitempty"`
	// DMs is the job's FULL ascending trial grid — never a subset, so
	// dedispersion-plan resolution is identical on every worker (see the
	// package comment).
	DMs    []float64  `json:"dms"`
	Search SearchSpec `json:"search"`
	// TrialLo and TrialHi restrict the search to [TrialLo, TrialHi) of
	// DMs, the shard's part of the job. Both zero searches every trial.
	TrialLo int `json:"trial_lo,omitempty"`
	TrialHi int `json:"trial_hi,omitempty"`
}

// Validate checks the shard is executable: it must carry the
// observation's bytes, or name them by digest (resolvable against a blob
// cache before execution).
func (s ShardSpec) Validate() error {
	if len(s.Filterbank) == 0 && s.FilterbankDigest == "" {
		return fmt.Errorf("fleet: shard %s/%d has no filterbank", s.Job, s.Index)
	}
	if s.FilterbankDigest != "" {
		if err := ValidDigest(s.FilterbankDigest); err != nil {
			return fmt.Errorf("fleet: shard %s/%d: %w", s.Job, s.Index, err)
		}
	}
	if len(s.DMs) == 0 {
		return fmt.Errorf("fleet: shard %s/%d has no trial grid", s.Job, s.Index)
	}
	if s.TrialLo != 0 || s.TrialHi != 0 {
		if s.TrialLo < 0 || s.TrialHi <= s.TrialLo || s.TrialHi > len(s.DMs) {
			return fmt.Errorf("fleet: shard %s/%d trial range [%d, %d) outside grid of %d trials",
				s.Job, s.Index, s.TrialLo, s.TrialHi, len(s.DMs))
		}
	}
	return nil
}

// RunShard executes one shard on the given executor, statelessly: it
// parses, zero-DMs and stages the observation for itself, however many
// shards of it ran before. Local and the NewHandler worker run the same
// core through a staging slot (stagingSlot), which keeps one staging
// between shards: every Local in the process shares one slot, and each
// handler has its own. The shard's events are delivered to emit time-sorted,
// in one batch once the search completes.
func RunShard(ctx context.Context, spec ShardSpec, exec rdd.ExecConfig, emit func([]spe.SPE) error) (sps.Stats, error) {
	return runShard(ctx, spec, exec, nil, emit)
}

// runShard is RunShard with the staging taken from, or published to, slot
// (nil: staged privately).
func runShard(ctx context.Context, spec ShardSpec, exec rdd.ExecConfig, slot *stagingSlot, emit func([]spe.SPE) error) (sps.Stats, error) {
	if err := spec.Validate(); err != nil {
		return sps.Stats{}, err
	}
	if len(spec.Filterbank) == 0 {
		// A digest-only spec reaches execution only through a handler that
		// failed to resolve it against the blob cache first.
		return sps.Stats{}, fmt.Errorf("fleet: shard %s/%d: blob %s not resolved to bytes",
			spec.Job, spec.Index, spec.FilterbankDigest)
	}
	hdr, data, err := sps.ParseRaw(spec.Filterbank)
	if err != nil {
		return sps.Stats{}, fmt.Errorf("fleet: shard %s/%d: reading filterbank: %w", spec.Job, spec.Index, err)
	}
	cfg, err := spec.Search.Config(spec.DMs, exec)
	if err != nil {
		return sps.Stats{}, fmt.Errorf("fleet: shard %s/%d: %w", spec.Job, spec.Index, err)
	}
	cfg.TrialLo, cfg.TrialHi = spec.TrialLo, spec.TrialHi
	key := stagingKey{spec.FilterbankDigest, spec.Search.ZeroDM}
	st, fresh := slot.acquire(key)
	cfg.Staging = st
	// The blob is searched in place, decoded tile by tile as it is staged.
	var events []spe.SPE
	stats, err := sps.SearchRaw(ctx, hdr, data, cfg, func(batch []spe.SPE) error {
		events = append(events, batch...)
		return nil
	})
	if err != nil {
		return stats, err
	}
	if fresh {
		slot.publish(key, st)
	}
	if len(events) > 0 && emit != nil {
		if err := emit(events); err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// stagingKey names what a staging slot holds: one observation blob under
// one zero-DM setting, the only inputs of its staging. The digest is the
// bytes' identity: the handler computes it from the bytes it received, and
// PlanDM from the bytes it plans, so a caller that rewrites a buffer in
// place and plans it again gets a new digest and the slot restages.
type stagingKey struct {
	digest string
	zeroDM bool
}

// stagingSlot is a worker's one reusable observation staging (DESIGN.md
// §9.1), so the DM shards of one observation that land on one worker
// decode, zero-DM and transpose it once. A shard that finds the slot
// holding its key reuses the published staging read-only, alongside any
// concurrent shard of the same blob. Any other shard drops the slot's
// staging before it stages — the worker never keeps two — and publishes
// its own fresh one only once its search completed. At rest the slot
// holds at most one staging, 4 bytes per sample and channel, and only of
// a blob live reports resident: the handler's slot drops its staging
// when the blob leaves the cache.
type stagingSlot struct {
	live func(digest string) bool // nil: every blob stays live

	mu  sync.Mutex
	key stagingKey
	st  *sps.Staging

	staged, reused *obs.Counter
}

func newStagingSlot(live func(digest string) bool) *stagingSlot {
	const name, help = "drapid_fleet_staging_total", "Shards by how they got their observation's channel-major staging: reused from the worker's slot, or staged afresh."
	return &stagingSlot{
		live:   live,
		staged: obs.Default.Counter(name, help, obs.L("outcome", "staged")),
		reused: obs.Default.Counter(name, help, obs.L("outcome", "reused")),
	}
}

// localSlot is the one staging slot every Local in the process shares, so
// an in-process fleet of any size holds at most one staging at rest.
var localSlot = sync.OnceValue(func() *stagingSlot { return newStagingSlot(nil) })

// acquire returns the staging handle for a shard of key: the published
// one when the slot holds key, else — fresh — a new empty one, after
// dropping the old. A nil slot, or a spec without a digest, stages
// privately (nil handle).
func (s *stagingSlot) acquire(key stagingKey) (st *sps.Staging, fresh bool) {
	if s == nil || key.digest == "" {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.st != nil && s.key == key {
		s.reused.Inc()
		return s.st, false
	}
	s.key, s.st = stagingKey{}, nil
	s.staged.Inc()
	return new(sps.Staging), true
}

// publish makes st, the fresh handle of a completed search, the slot's
// staging for key, unless key's blob is no longer live.
func (s *stagingSlot) publish(key stagingKey, st *sps.Staging) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.live == nil || s.live(key.digest) {
		s.key, s.st = key, st
	}
}

// drop releases the slot's staging of the blob digest names, which has
// left the blob cache.
func (s *stagingSlot) drop(digest string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.key.digest == digest {
		s.key, s.st = stagingKey{}, nil
	}
}

// PlanDM splits a job into n DM shards: contiguous, balanced sub-ranges
// of the full trial grid, every shard carrying the whole observation.
// n is clamped to the trial count; the returned slice has the effective
// shard count.
func PlanDM(job string, raw []byte, dms []float64, search SearchSpec, n int) []ShardSpec {
	if n > len(dms) {
		n = len(dms)
	}
	if n < 1 {
		n = 1
	}
	// One observation, one digest: every DM shard addresses the same
	// blob, so a remote worker receives the bytes at most once per job —
	// and at most once across jobs while the blob stays cached.
	digest := Digest(raw)
	shards := make([]ShardSpec, 0, n)
	for i := 0; i < n; i++ {
		lo := i * len(dms) / n
		hi := (i + 1) * len(dms) / n
		if hi <= lo {
			continue
		}
		shards = append(shards, ShardSpec{
			Job: job, Index: len(shards),
			Filterbank: raw, FilterbankDigest: digest, DMs: dms, Search: search,
			TrialLo: lo, TrialHi: hi,
		})
	}
	for i := range shards {
		shards[i].Shards = len(shards)
	}
	return shards
}
