package sps

import (
	"bytes"
	"math"
	"slices"
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
// the overlap-carry invariants — starts advance by the block size, the raw
// length is exactly the rows' bytes, every row decodes to the values Read
// gives its sample (when Read accepts the input), and a Last block is
// final. Seeds
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
		rowBytes := nchan * br.Header().NBits / 8
		whole, _ := Read(bytes.NewReader(data))
		next := 0
		for k := 0; k < 1<<16; k++ {
			blk, err := br.Next()
			if err != nil {
				return
			}
			if blk.Start != next {
				t.Fatalf("block %d starts at %d, want %d", k, blk.Start, next)
			}
			if blk.Rows < 0 || len(blk.Raw) != blk.Rows*rowBytes {
				t.Fatalf("block %d: %d bytes for %d rows of %d bytes", k, len(blk.Raw), blk.Rows, rowBytes)
			}
			if whole != nil {
				if blk.Start+blk.Rows > whole.NSamples {
					t.Fatalf("block %d ends at sample %d, past Read's %d", k, blk.Start+blk.Rows, whole.NSamples)
				}
				want := whole.Data[blk.Start*nchan : (blk.Start+blk.Rows)*nchan]
				if got := decodeBlock(blk, nchan); !slices.EqualFunc(got, want, sameBits) {
					t.Fatalf("block %d at %d decodes to values Read does not give", k, blk.Start)
				}
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

// sameBits compares float32 values bit for bit, NaN payloads included.
func sameBits(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }

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

// FuzzParseRaw holds the raw parse — the validation every in-memory detect
// and fleet shard runs on bytes straight off the network — to Read on any
// input: both accept or both reject, with equal headers and a data slice
// that decodes to exactly Read's values. Neither may panic.
func FuzzParseRaw(f *testing.F) {
	for _, nbits := range []int{8, 32} {
		fb := &Filterbank{Header: testHeader()}
		fb.NBits = nbits
		fb.Data = make([]float32, fb.NSamples*fb.NChans)
		for i := range fb.Data {
			fb.Data[i] = float32(i % 251)
		}
		var valid bytes.Buffer
		if err := Write(&valid, fb); err != nil {
			f.Fatal(err)
		}
		raw := valid.Bytes()
		f.Add(raw)
		f.Add(raw[:len(raw)-3])                          // truncated against nsamples
		f.Add(append(append([]byte{}, raw...), 1, 2, 3)) // trailing bytes past nsamples
		open := fb.Header
		open.NSamples = 0
		var hdr bytes.Buffer
		if err := WriteHeader(&hdr, open); err != nil {
			f.Fatal(err)
		}
		body := append(hdr.Bytes(), raw[len(raw)-len(fb.Data)*nbits/8:]...)
		f.Add(body)               // nsamples absent: whole samples to EOF
		f.Add(body[:len(body)-1]) // nsamples absent: ragged tail
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, rerr := Read(bytes.NewReader(data))
		hdr, raw, perr := ParseRaw(data)
		if (rerr == nil) != (perr == nil) {
			t.Fatalf("Read error %v, ParseRaw error %v", rerr, perr)
		}
		if rerr != nil {
			return
		}
		if hdr != want.Header {
			t.Fatalf("ParseRaw header %+v, Read %+v", hdr, want.Header)
		}
		if len(raw) != len(want.Data)*hdr.NBits/8 {
			t.Fatalf("ParseRaw gave %d data bytes for Read's %d values", len(raw), len(want.Data))
		}
		got := make([]float32, len(want.Data))
		decodeValues(got, raw, hdr.NBits)
		if !slices.EqualFunc(got, want.Data, sameBits) {
			t.Fatal("ParseRaw's data decodes to values Read does not give")
		}
	})
}
