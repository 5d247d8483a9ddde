package sps

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"drapid/internal/spe"
)

// TestStagingHandle: a search through a Staging handle returns exactly
// the events of the same search without one, whether the handle is empty
// (the search fills it), holds this search's staging (the search reuses
// it), or holds a staging of other geometry or zero-DM — the other zero-DM
// setting, an 8-bit observation of the same shape — in which case the
// search stages privately and the handle keeps what it held. A gulped
// search ignores the handle, and a failed search leaves an empty handle
// empty.
func TestStagingHandle(t *testing.T) {
	fb := streamFixture(t)
	raw := func(nbits int) []byte {
		t.Helper()
		fb.NBits = nbits
		var buf bytes.Buffer
		if err := Write(&buf, fb); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	raw32, raw8 := raw(32), raw(8)
	dms, err := LinearDMs(0, 120, 2)
	if err != nil {
		t.Fatal(err)
	}
	search := func(ctx context.Context, b []byte, zeroDM bool, block int, st *Staging) ([]spe.SPE, error) {
		t.Helper()
		hdr, data, err := ParseRaw(b)
		if err != nil {
			t.Fatal(err)
		}
		var events []spe.SPE
		cfg := Config{DMs: dms, Threshold: 6, NormWindow: 512, ZeroDM: zeroDM, BlockSamples: block, TrialLo: 10, TrialHi: 40, Staging: st}
		_, err = SearchRaw(ctx, hdr, data, cfg, func(batch []spe.SPE) error {
			events = append(events, batch...)
			return nil
		})
		return events, err
	}

	st := new(Staging)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := search(cancelled, raw32, true, 0, st); err == nil {
		t.Fatal("a cancelled search succeeded")
	}
	if st.geom != (stagingGeom{}) {
		t.Fatalf("a failed search left the handle holding %+v", st.geom)
	}
	hdr, data, err := ParseRaw(raw32)
	if err != nil {
		t.Fatal(err)
	}
	first := stagingGeom{size: len(data), rows: hdr.NSamples, nchans: hdr.NChans, nbits: 32, zeroDM: true}
	for _, tc := range []struct {
		name   string
		data   []byte
		zeroDM bool
		block  int
	}{
		{"fill", raw32, true, 0},
		{"reuse", raw32, true, 0},
		{"other zero-DM", raw32, false, 0},
		{"8-bit", raw8, true, 0},
		{"gulped", raw32, true, 2048},
	} {
		want, err := search(context.Background(), tc.data, tc.zeroDM, tc.block, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("%s: the search found no events", tc.name)
		}
		got, err := search(context.Background(), tc.data, tc.zeroDM, tc.block, st)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: events through the handle differ from a search without one (%d vs %d)", tc.name, len(got), len(want))
		}
		if st.geom != first {
			t.Fatalf("%s: the handle holds %+v, want the first search's %+v", tc.name, st.geom, first)
		}
	}
}
