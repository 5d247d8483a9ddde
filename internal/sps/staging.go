package sps

import (
	"context"

	"drapid/internal/rdd"
)

// Staging is a reusable channel-major staging of one whole observation
// held as raw bytes (DESIGN.md §9.1): the decode, zero-DM filter and
// transpose a one-gulp search does before it dedisperses, kept so that a
// later search of the same bytes — a fleet worker's next DM shard of the
// observation — skips them. Pass it as Config.Staging; the zero value is
// an empty handle.
//
// The first one-gulp search of raw data through an empty handle fills it
// and records the geometry and zero-DM setting it staged. A later search
// with the same geometry and zero-DM reuses the staging; any other, and
// every gulped or decoded search, stages privately as with no handle, and
// the handle keeps what it held. The staging depends on nothing else —
// not the trial grid, the trial range, the plan or the worker count — so
// a reused staging is bit-identical to a fresh one.
//
// The handle does not know which bytes it staged: its owner must pass a
// filled handle only to searches of the same bytes (the fleet's staging
// slot keys it by the observation's content digest). Filling is not
// synchronised: an empty handle belongs to one search until that search
// returns; after that, searches may share it read-only, concurrently,
// once they are ordered after that return (for example by a mutex).
type Staging struct {
	geom stagingGeom // the zero value until the handle is filled
	cm   chanMajor
}

// stagingGeom is what a staging was built from, apart from the bytes.
type stagingGeom struct {
	size, rows, nchans, nbits int
	zeroDM                    bool
}

// stage returns the channel-major staging of blk: the handle's own when it
// holds a staging of blk's geometry and zero-DM, staged into the handle
// when it is empty, and otherwise staged into scratch — always scratch for
// a nil handle or a block that is not a whole raw observation.
func (s *Staging) stage(ctx context.Context, exec rdd.ExecConfig, blk *Block, nchans int, zeroDM bool, sc *stageClock, scratch *chanMajor) (*chanMajor, error) {
	if s != nil && blk.Start == 0 && blk.Last && blk.NBits != 0 && len(blk.Raw) > 0 {
		geom := stagingGeom{size: len(blk.Raw), rows: blk.Rows, nchans: nchans, nbits: blk.NBits, zeroDM: zeroDM}
		switch s.geom {
		case geom:
			return &s.cm, nil
		case stagingGeom{}:
			if err := s.cm.stage(ctx, exec, blk, nchans, zeroDM, sc); err != nil {
				return nil, err
			}
			s.geom = geom
			return &s.cm, nil
		}
	}
	return scratch, scratch.stage(ctx, exec, blk, nchans, zeroDM, sc)
}
