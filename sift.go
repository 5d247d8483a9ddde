package drapid

import (
	"fmt"
	"strings"

	"drapid/internal/dbscan"
	"drapid/internal/sift"
	"drapid/internal/spe"
)

// Sift configures the post-classification sifting stage of a DetectJob:
// the ranked-candidate view (Result.TopCandidates, Job.Top) and the
// repeat-source cross-match (Result.Sources). The zero value enables
// sifting with the documented defaults; set Disable to skip the stage.
// See DESIGN.md §8.
type Sift struct {
	// Disable turns sifting off: the job runs exactly as before this stage
	// existed, and the ranked views stay empty.
	Disable bool `json:"disable,omitempty"`
	// Top bounds Result.TopCandidates (and the default page of Job.Top);
	// zero takes DefaultTopCandidates.
	Top int `json:"top,omitempty"`
	// Catalog is an inline known-source catalog in "name,dm,period_s" CSV
	// (see internal/sift.CatalogHeader); matched sources carry the entry's
	// name in Source.Known. Inline text rather than a path so the HTTP API
	// ships it in the job document.
	Catalog string `json:"catalog,omitempty"`
	// MinGroup, MinSNR, CloseDM and CatalogDM override the sifting
	// parameters of the same names (zero keeps each default).
	MinGroup  int     `json:"min_group,omitempty"`
	MinSNR    float64 `json:"min_snr,omitempty"`
	CloseDM   float64 `json:"close_dm,omitempty"`
	CatalogDM float64 `json:"catalog_dm,omitempty"`
}

// DefaultTopCandidates bounds Result.TopCandidates when Sift.Top is zero.
const DefaultTopCandidates = 10

// params maps the public overrides onto the sifting parameter set.
func (s Sift) params() sift.Params {
	return sift.Params{
		MinGroup:  s.MinGroup,
		MinSNR:    s.MinSNR,
		CloseDM:   s.CloseDM,
		CatalogDM: s.CatalogDM,
	}
}

// validate checks the configuration and parses the inline catalog, so a
// bad catalog fails at submission rather than mid-job.
func (s Sift) validate() ([]sift.CatalogEntry, error) {
	if s.Top < 0 {
		return nil, fmt.Errorf("drapid: Sift.Top must be >= 0, got %d", s.Top)
	}
	if err := s.params().Validate(); err != nil {
		return nil, fmt.Errorf("drapid: %w", err)
	}
	if s.Catalog == "" {
		return nil, nil
	}
	cat, err := sift.ParseCatalog(strings.NewReader(s.Catalog))
	if err != nil {
		return nil, fmt.Errorf("drapid: parsing sift catalog: %w", err)
	}
	return cat, nil
}

// TopCandidate is one entry of the ranked sifted view: a DBSCAN group
// summarised by its peak event, rated on the sifting ladder, and annotated
// with the repeat source it cross-matched into (if any). Every field
// derives from the group's member events alone, which is what makes the
// ranked output record-for-record identical between the batch and
// streaming detect paths (DESIGN.md §8.4).
type TopCandidate struct {
	// Key identifies the observation; Cluster is the DBSCAN cluster id
	// (matching Candidate.Cluster for the same group).
	Key     string `json:"key"`
	Cluster int    `json:"cluster"`
	// Rank names the sifting-ladder rung ("rfi" … "excellent"); Score is
	// the canonical ordering key (rank first, peak SNR second).
	Rank  string  `json:"rank"`
	Score float64 `json:"score"`
	// SNR, DM, Time and Width describe the group's best event; N counts
	// members; the Min/Max pairs bound the group.
	SNR   float64 `json:"snr"`
	DM    float64 `json:"dm"`
	Time  float64 `json:"time"`
	Width int     `json:"width"`
	N     int     `json:"n"`
	DMMin float64 `json:"dm_min"`
	DMMax float64 `json:"dm_max"`
	TMin  float64 `json:"t_min"`
	TMax  float64 `json:"t_max"`
	// Source is the 1-based id of the repeat source this group folded into
	// (zero when the group rated below fair and joined none); Known is that
	// source's catalog name, when matched.
	Source int    `json:"source,omitempty"`
	Known  string `json:"known,omitempty"`
}

// Source is one cross-matched repeat source of the observation: detections
// of consistent DM folded together, with the detection count and best-SNR
// exemplar. It aliases the sifting stage's type the way InjectedPulse
// aliases the frontend's.
type Source = sift.Source

// TopView is the ranked snapshot Job.Top returns: the top candidates in
// canonical ranked order plus every cross-matched source.
type TopView struct {
	Top     []TopCandidate `json:"top"`
	Sources []Source       `json:"sources"`
}

// jobSift is a detect job's sifting state: configuration fixed at
// submission, plus the rated groups accumulated as clustering completes
// (once in batch, per segment in streaming). The groups slice is guarded
// by the job's mu; everything else is immutable after submission.
type jobSift struct {
	params  sift.Params
	catalog []sift.CatalogEntry
	top     int
	groups  []sift.Group
}

// addSiftGroups folds one clustering pass's rated groups into the job.
func (j *Job) addSiftGroups(gs []sift.Group) {
	j.mu.Lock()
	j.sift.groups = append(j.sift.groups, gs...)
	j.mu.Unlock()
}

// Top returns the ranked sifted view over everything clustered so far: up
// to n top candidates (n <= 0 takes the job's configured bound) and the
// cross-matched sources. Safe to call at any time from any goroutine — on
// a still-streaming job it snapshots the segments identified so far; on a
// completed job it equals Result.TopCandidates/Sources. Identification
// jobs and detect jobs with sifting disabled return an empty view.
func (j *Job) Top(n int) TopView {
	j.mu.Lock()
	s := j.sift
	var gs []sift.Group
	if s != nil {
		gs = append(gs, s.groups...)
	}
	j.mu.Unlock()
	if s == nil {
		return TopView{}
	}
	return siftView(gs, s, n)
}

// siftView ranks a snapshot of rated groups into the public view. gs is
// owned by the caller (mutated by sorting).
func siftView(gs []sift.Group, s *jobSift, n int) TopView {
	sift.SortGroups(gs)
	sources := sift.Sources(gs, s.params)
	sift.MatchCatalog(sources, s.catalog, s.params)
	srcOf := sift.SourceOf(sources)
	if n <= 0 {
		n = s.top
	}
	view := TopView{Sources: sources}
	for _, g := range gs {
		if g.Rank == sift.RankNoise {
			continue // below the floor: not a candidate at all
		}
		tc := TopCandidate{
			Key: g.Key, Cluster: g.ID,
			Rank: g.Rank.String(), Score: g.Score(),
			SNR: g.SNR, DM: g.DM, Time: g.Time, Width: g.Width, N: g.N,
			DMMin: g.DMMin, DMMax: g.DMMax, TMin: g.TMin, TMax: g.TMax,
		}
		if si, ok := srcOf[g.ID]; ok {
			tc.Source = sources[si].ID
			tc.Known = sources[si].Known
		}
		view.Top = append(view.Top, tc)
		if len(view.Top) >= n {
			break
		}
	}
	return view
}

// siftGroups rates every cluster of one clustered segment. base offsets
// the cluster ids: the streaming path passes the cumulative cluster count
// of earlier segments so ids (and with them the ranked view and the
// candidate stream) match what one batch pass over the same events would
// have assigned — segments are cut at quiet gaps wider than the DBSCAN
// linkage reach, and batch clustering discovers clusters in time order,
// so per-segment ids continue the batch numbering exactly.
func siftGroups(key spe.Key, events []spe.SPE, res *dbscan.Result, base int, p sift.Params) []sift.Group {
	out := make([]sift.Group, 0, len(res.Members))
	for c := range res.Members {
		out = append(out, sift.Build(base+c, key, res.MemberEvents(c, events), p))
	}
	return out
}
