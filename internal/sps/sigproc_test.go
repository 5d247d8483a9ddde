package sps

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
)

func testHeader() Header {
	return Header{
		SourceName: "J0000+00",
		DataType:   1,
		TStartMJD:  58000.5,
		TsampSec:   256e-6,
		Fch1MHz:    1500,
		FoffMHz:    -2,
		NChans:     4,
		NBits:      32,
		NIFs:       1,
		NSamples:   8,
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	want := testHeader()
	var buf bytes.Buffer
	if err := WriteHeader(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadHeader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
}

func TestFilterbankRoundTrip32(t *testing.T) {
	fb := &Filterbank{Header: testHeader()}
	fb.Data = make([]float32, fb.NSamples*fb.NChans)
	for i := range fb.Data {
		fb.Data[i] = float32(i) - 7.5
	}
	var buf bytes.Buffer
	if err := Write(&buf, fb); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header != fb.Header {
		t.Fatalf("header: got %+v want %+v", got.Header, fb.Header)
	}
	for i := range fb.Data {
		if got.Data[i] != fb.Data[i] {
			t.Fatalf("data[%d] = %g, want %g", i, got.Data[i], fb.Data[i])
		}
	}
}

func TestFilterbankRoundTrip8BitClamps(t *testing.T) {
	fb := &Filterbank{Header: testHeader()}
	fb.NBits = 8
	fb.Data = make([]float32, fb.NSamples*fb.NChans)
	fb.Data[0], fb.Data[1], fb.Data[2] = -5, 300, 41.6
	var buf bytes.Buffer
	if err := Write(&buf, fb); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Data[0] != 0 || got.Data[1] != 255 || got.Data[2] != 42 {
		t.Fatalf("8-bit clamp/round: got %v %v %v", got.Data[0], got.Data[1], got.Data[2])
	}
}

func TestReadDerivesNSamples(t *testing.T) {
	fb := &Filterbank{Header: testHeader()}
	fb.Data = make([]float32, fb.NSamples*fb.NChans)
	var buf bytes.Buffer
	if err := Write(&buf, fb); err != nil {
		t.Fatal(err)
	}
	// Rewrite the header with nsamples elided (0): Read must derive it
	// from the data length.
	hdr := fb.Header
	hdr.NSamples = 0
	var buf2 bytes.Buffer
	if err := WriteHeader(&buf2, hdr); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	buf2.Write(raw[len(raw)-4*len(fb.Data):])
	got, err := Read(&buf2)
	if err != nil {
		t.Fatal(err)
	}
	if got.NSamples != fb.NSamples {
		t.Fatalf("derived nsamples = %d, want %d", got.NSamples, fb.NSamples)
	}
}

// mustHeaderBytes serialises a header for malformed-input surgery.
func mustHeaderBytes(t *testing.T, hdr Header) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteHeader(&buf, hdr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func prefixed(s string) []byte {
	var buf bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, int32(len(s)))
	buf.WriteString(s)
	return buf.Bytes()
}

func TestReadHeaderRejectsMalformed(t *testing.T) {
	valid := mustHeaderBytes(t, testHeader())
	cases := map[string][]byte{
		"empty":            {},
		"not a filterbank": []byte("plain text file"),
		"bad magic":        prefixed("HEADER_SMART"),
		"truncated":        valid[:len(valid)-6],
		"negative length":  {0xff, 0xff, 0xff, 0xff},
		"huge length":      {0xff, 0xff, 0x00, 0x00},
		"unknown keyword": append(append([]byte{}, prefixed(headerStart)...),
			prefixed("bogus_keyword")...),
		"no header end": append(append([]byte{}, prefixed(headerStart)...),
			bytes.Repeat(prefixed("signed"), 80)...),
	}
	for name, data := range cases {
		if _, err := ReadHeader(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: ReadHeader accepted malformed input", name)
		}
	}
}

func TestReadHeaderRejectsInvalidFields(t *testing.T) {
	mods := map[string]func(*Header){
		"zero channels": func(h *Header) { h.NChans = 0 },
		"nbits 16":      func(h *Header) { h.NBits = 16 },
		"two IFs":       func(h *Header) { h.NIFs = 2 },
		"zero tsamp":    func(h *Header) { h.TsampSec = 0 },
		"zero foff":     func(h *Header) { h.FoffMHz = 0 },
		"negative fch1": func(h *Header) { h.Fch1MHz = -100 },
		"band crosses zero": func(h *Header) {
			h.Fch1MHz, h.FoffMHz, h.NChans = 100, -2, 60
		},
		// The writer must refuse what the reader would reject, so a
		// generated file always round-trips.
		"oversized source name": func(h *Header) {
			h.SourceName = strings.Repeat("x", maxKeyword+1)
		},
	}
	for name, mod := range mods {
		hdr := testHeader()
		mod(&hdr)
		if err := hdr.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, hdr)
		}
		if err := WriteHeader(&bytes.Buffer{}, hdr); err == nil {
			t.Errorf("%s: WriteHeader accepted invalid header", name)
		}
	}
}

func TestReadRejectsShortData(t *testing.T) {
	hdr := testHeader()
	var buf bytes.Buffer
	if err := WriteHeader(&buf, hdr); err != nil {
		t.Fatal(err)
	}
	buf.Write(make([]byte, 10)) // far fewer than 8×4×4 bytes
	if _, err := Read(&buf); err == nil || !strings.Contains(err.Error(), "data") {
		t.Fatalf("Read accepted truncated data: %v", err)
	}
}

func TestHeaderGeometry(t *testing.T) {
	h := testHeader() // 1500, 1498, 1496, 1494 MHz
	if got := h.FTopMHz(); got != 1500 {
		t.Fatalf("FTopMHz = %g", got)
	}
	if got := h.FreqMHz(3); got != 1494 {
		t.Fatalf("FreqMHz(3) = %g", got)
	}
	if got := h.BandwidthMHz(); got != 8 {
		t.Fatalf("BandwidthMHz = %g", got)
	}
	if got := h.CenterFreqGHz(); math.Abs(got-1.497) > 1e-12 {
		t.Fatalf("CenterFreqGHz = %g", got)
	}
	if got := h.DurationSec(); math.Abs(got-8*256e-6) > 1e-12 {
		t.Fatalf("DurationSec = %g", got)
	}
	up := h
	up.Fch1MHz, up.FoffMHz = 1400, 2 // ascending band: 1400…1406
	if got := up.FTopMHz(); got != 1406 {
		t.Fatalf("ascending FTopMHz = %g", got)
	}
}

// bigFilterbank builds a filterbank of the given geometry filled with a
// deterministic pattern either bit depth carries exactly: byte values for
// 8-bit, arbitrary finite bit patterns (both signs, every magnitude) for
// 32-bit.
func bigFilterbank(nbits, nsamples, nchans int) *Filterbank {
	hdr := testHeader()
	hdr.NBits, hdr.NSamples, hdr.NChans = nbits, nsamples, nchans
	fb := &Filterbank{Header: hdr, Data: make([]float32, nsamples*nchans)}
	for i := range fb.Data {
		if nbits == 8 {
			fb.Data[i] = float32((i * 31) % 256)
		} else {
			// Clearing the exponent's top bit keeps every pattern finite.
			fb.Data[i] = math.Float32frombits(uint32(i) * 2654435761 &^ (1 << 30))
		}
	}
	return fb
}

func mustWrite(t *testing.T, fb *Filterbank) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, fb); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadRoundTripAcrossChunks: Write→Read is bit-identical at both bit
// depths when the data block is many read chunks long and ends partway
// through one.
func TestReadRoundTripAcrossChunks(t *testing.T) {
	for _, nbits := range []int{8, 32} {
		fb := bigFilterbank(nbits, 3*readChunk+1234, 3)
		got, err := Read(bytes.NewReader(mustWrite(t, fb)))
		if err != nil {
			t.Fatalf("nbits %d: %v", nbits, err)
		}
		if got.Header != fb.Header || len(got.Data) != len(fb.Data) {
			t.Fatalf("nbits %d: header %+v with %d values, want %+v with %d", nbits, got.Header, len(got.Data), fb.Header, len(fb.Data))
		}
		for i := range fb.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(fb.Data[i]) {
				t.Fatalf("nbits %d: data[%d] = %v, want %v", nbits, i, got.Data[i], fb.Data[i])
			}
		}
	}
}

// TestReadTruncatedData: a data block cut anywhere — inside a value, inside
// a sample row, inside a later read chunk, exactly on a chunk boundary, or
// right after the header — is an error naming the full byte count, never a
// partial Filterbank.
func TestReadTruncatedData(t *testing.T) {
	fb := bigFilterbank(32, readChunk, 3)
	raw := mustWrite(t, fb)
	dataBytes := 4 * len(fb.Data)
	hdrLen := len(raw) - dataBytes
	want := fmt.Sprintf("reading %d data bytes", dataBytes)
	for name, keep := range map[string]int{
		"mid-value":      dataBytes - 2,
		"mid-sample":     dataBytes - 4,
		"mid-chunk":      2*readChunk + 4000,
		"chunk boundary": 2 * readChunk,
		"no data":        0,
	} {
		got, err := Read(bytes.NewReader(raw[:hdrLen+keep]))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want one naming %q", name, err, want)
		}
		cause := io.ErrUnexpectedEOF
		if keep == 0 {
			cause = io.EOF
		}
		if !errors.Is(err, cause) {
			t.Errorf("%s: err = %v, want cause %v", name, err, cause)
		}
		if got != nil {
			t.Errorf("%s: Read returned a partial filterbank of %d values", name, len(got.Data))
		}
	}
}

// TestReadToEOFAcrossChunks covers the nsamples-absent path: the sample
// count derives from a block many chunks long, and a block that ends inside
// a sample row or inside a value is rejected with the byte count.
func TestReadToEOFAcrossChunks(t *testing.T) {
	for _, nbits := range []int{8, 32} {
		fb := bigFilterbank(nbits, 2*readChunk+77, 3)
		raw := mustWrite(t, fb)
		dataBytes := len(fb.Data) * nbits / 8
		open := fb.Header
		open.NSamples = 0
		body := append(mustHeaderBytes(t, open), raw[len(raw)-dataBytes:]...)
		got, err := Read(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("nbits %d: %v", nbits, err)
		}
		if got.NSamples != fb.NSamples || len(got.Data) != len(fb.Data) {
			t.Fatalf("nbits %d: derived %d samples (%d values), want %d (%d)", nbits, got.NSamples, len(got.Data), fb.NSamples, len(fb.Data))
		}
		for i := range fb.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(fb.Data[i]) {
				t.Fatalf("nbits %d: data[%d] = %v, want %v", nbits, i, got.Data[i], fb.Data[i])
			}
		}
		for _, cut := range []int{1, nbits / 8} { // inside a value (32-bit) / inside a row
			ragged := body[:len(body)-cut]
			want := fmt.Sprintf("data block of %d bytes is not a whole number", dataBytes-cut)
			if got, err := Read(bytes.NewReader(ragged)); err == nil || got != nil || !strings.Contains(err.Error(), want) {
				t.Errorf("nbits %d cut %d: got %v, err %v; want an error naming %q", nbits, cut, got != nil, err, want)
			}
		}
	}
}

// TestReadAllocatesOneBlock pins the copy-free decode: reading a data block
// allocates the float32 block and a read buffer, not an encoded twin of the
// file beside it (which made it 2× for 32-bit data).
func TestReadAllocatesOneBlock(t *testing.T) {
	fb := bigFilterbank(32, 1<<18, 4) // 4 MiB of float32
	raw := mustWrite(t, fb)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := Read(bytes.NewReader(raw))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	block := uint64(4 * len(got.Data))
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= block*11/10 {
		t.Fatalf("Read allocated %d bytes for a %d-byte float32 block (%.2f×), want < 1.1×", alloc, block, float64(alloc)/float64(block))
	}
}
