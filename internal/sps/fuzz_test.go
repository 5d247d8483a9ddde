package sps

import (
	"bytes"
	"testing"
)

// FuzzReadHeader asserts the SIGPROC header parser never panics: any input
// either parses into a header that Validate accepts or returns an error.
// Seeds cover the valid header, truncations, and keyword corruption; the
// checked-in corpus under testdata/fuzz extends them.
func FuzzReadHeader(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteHeader(&valid, testHeader()); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte{})
	f.Add([]byte("HEADER_START"))
	f.Add(prefixed(headerStart))
	f.Add(append(append([]byte{}, prefixed(headerStart)...), prefixed("nchans")...))
	f.Add(valid.Bytes()[:len(valid.Bytes())/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, err := ReadHeader(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A header the reader accepts must be internally valid and
		// serialisable: the writer round-trips it back to a parseable form.
		if err := hdr.Validate(); err != nil {
			t.Fatalf("accepted header fails Validate: %v (%+v)", err, hdr)
		}
		var buf bytes.Buffer
		if err := WriteHeader(&buf, hdr); err != nil {
			t.Fatalf("accepted header fails to serialise: %v", err)
		}
		hdr2, err := ReadHeader(&buf)
		if err != nil {
			t.Fatalf("re-reading serialised header: %v", err)
		}
		if hdr2 != hdr {
			t.Fatalf("header round trip diverged:\n got %+v\nwant %+v", hdr2, hdr)
		}
	})
}

// FuzzBlockReader asserts the gulp reader never panics on arbitrary bytes
// for any (small) block geometry: every block either errors or satisfies
// the overlap-carry invariants — starts advance by the block size, the
// data length matches the row count, and a Last block is final. Seeds
// cover the valid file, truncated bodies (both with and without a
// header-declared nsamples), an oversized body, and a ragged tail; the
// checked-in corpus under testdata/fuzz extends them.
func FuzzBlockReader(f *testing.F) {
	fb := &Filterbank{Header: testHeader()}
	fb.Data = make([]float32, fb.NSamples*fb.NChans)
	var valid bytes.Buffer
	if err := Write(&valid, fb); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes(), 7, 3)
	f.Add(valid.Bytes(), 64, 0)
	f.Add(valid.Bytes()[:len(valid.Bytes())-3], 7, 3)    // ragged tail
	f.Add(valid.Bytes()[:len(valid.Bytes())/2], 5, 2)    // truncated body
	f.Add(append(valid.Bytes(), valid.Bytes()...), 9, 4) // oversized body
	hdrOnly := &Filterbank{Header: testHeader()}
	hdrOnly.NSamples = 0
	hdrOnly.Data = nil
	var open bytes.Buffer
	if err := WriteHeader(&open, hdrOnly.Header); err != nil {
		f.Fatal(err)
	}
	openBody := append(append([]byte{}, open.Bytes()...), valid.Bytes()[len(valid.Bytes())-fb.NSamples*fb.NChans*4:]...)
	f.Add(openBody, 6, 5) // nsamples-free stream, length known only at EOF
	f.Fuzz(func(t *testing.T, data []byte, block, overlap int) {
		block = 1 + abs(block)%64
		overlap = abs(overlap) % 64
		br, err := NewBlockReader(bytes.NewReader(data), block, overlap)
		if err != nil {
			return
		}
		nchan := br.Header().NChans
		next := 0
		for k := 0; k < 1<<16; k++ {
			blk, err := br.Next()
			if err != nil {
				return
			}
			if blk.Start != next {
				t.Fatalf("block %d starts at %d, want %d", k, blk.Start, next)
			}
			if blk.Rows < 0 || len(blk.Data) != blk.Rows*nchan {
				t.Fatalf("block %d: %d values for %d rows of %d channels", k, len(blk.Data), blk.Rows, nchan)
			}
			next += block
			if blk.Last {
				if _, err := br.Next(); err == nil {
					t.Fatal("Next succeeded after the Last block")
				}
				return
			}
			if blk.Rows != block+overlap {
				t.Fatalf("non-last block %d has %d rows, want %d", k, blk.Rows, block+overlap)
			}
		}
		t.Fatal("reader yielded 65536 blocks without ending")
	})
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// FuzzRead asserts the whole-file reader never panics on arbitrary bytes,
// and that accepted files have consistent geometry.
func FuzzRead(f *testing.F) {
	fb := &Filterbank{Header: testHeader()}
	fb.Data = make([]float32, fb.NSamples*fb.NChans)
	var valid bytes.Buffer
	if err := Write(&valid, fb); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:len(valid.Bytes())-3])
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(got.Data) != got.NSamples*got.NChans {
			t.Fatalf("accepted filterbank has %d values for %d×%d", len(got.Data), got.NSamples, got.NChans)
		}
	})
}
