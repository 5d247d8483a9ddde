package sps

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
)

// SIGPROC filterbank files carry a self-describing binary header — a
// sequence of length-prefixed keyword strings, each followed by its value
// in the type the keyword dictates — bracketed by HEADER_START/HEADER_END,
// then the raw samples. Everything is little-endian. The reader is strict:
// malformed input of any shape returns an error (never a panic — the fuzz
// target's contract), and unknown keywords are rejected because their
// value width cannot be known.

// ErrNotFilterbank reports input that does not begin with a SIGPROC
// HEADER_START token.
var ErrNotFilterbank = errors.New("sps: not a SIGPROC filterbank (missing HEADER_START)")

const (
	headerStart = "HEADER_START"
	headerEnd   = "HEADER_END"

	// maxKeyword bounds a keyword/string-value length prefix; SIGPROC
	// keywords are short and source names are file-name sized.
	maxKeyword = 256
	// maxChans and maxSamples bound allocations driven by header fields,
	// so a hostile header cannot demand gigabytes before the data read
	// fails anyway.
	maxChans   = 1 << 16
	maxSamples = 1 << 28
)

// headerKind is the value type a SIGPROC keyword carries.
type headerKind int

const (
	kindInt headerKind = iota
	kindDouble
	kindString
	kindFlag // keyword with no value
)

// sigprocKeywords maps every keyword this reader understands to its value
// type. Keywords SIGPROC defines but this package does not model are
// parsed and discarded (entries with no Header field below).
var sigprocKeywords = map[string]headerKind{
	"source_name":   kindString,
	"rawdatafile":   kindString,
	"telescope_id":  kindInt,
	"machine_id":    kindInt,
	"data_type":     kindInt,
	"barycentric":   kindInt,
	"pulsarcentric": kindInt,
	"nchans":        kindInt,
	"nbits":         kindInt,
	"nifs":          kindInt,
	"nsamples":      kindInt,
	"nbeams":        kindInt,
	"ibeam":         kindInt,
	"az_start":      kindDouble,
	"za_start":      kindDouble,
	"src_raj":       kindDouble,
	"src_dej":       kindDouble,
	"tstart":        kindDouble,
	"tsamp":         kindDouble,
	"fch1":          kindDouble,
	"foff":          kindDouble,
	"refdm":         kindDouble,
	"period":        kindDouble,
	"signed":        kindFlag,
}

// readPrefixed reads one length-prefixed SIGPROC string.
func readPrefixed(r io.Reader) (string, error) {
	var n int32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", fmt.Errorf("sps: reading string length: %w", err)
	}
	if n < 1 || n > maxKeyword {
		return "", fmt.Errorf("sps: string length %d outside [1,%d]", n, maxKeyword)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", fmt.Errorf("sps: reading %d-byte string: %w", n, err)
	}
	return string(buf), nil
}

// ReadHeader parses a SIGPROC header from r, leaving r positioned at the
// first data byte. It returns an error — never panics — on any malformed
// input: wrong magic, truncation, unknown keywords, out-of-range lengths,
// or a header that fails Validate.
func ReadHeader(r io.Reader) (Header, error) {
	start, err := readPrefixed(r)
	if err != nil || start != headerStart {
		return Header{}, ErrNotFilterbank
	}
	hdr := Header{NIFs: 1, NBits: 32, DataType: 1}
	seen := 0
	for {
		seen++
		if seen > 64 {
			return Header{}, fmt.Errorf("sps: header exceeds 64 keywords without HEADER_END")
		}
		kw, err := readPrefixed(r)
		if err != nil {
			return Header{}, fmt.Errorf("sps: reading keyword: %w", err)
		}
		if kw == headerEnd {
			break
		}
		kind, ok := sigprocKeywords[kw]
		if !ok {
			return Header{}, fmt.Errorf("sps: unknown header keyword %q", kw)
		}
		switch kind {
		case kindString:
			s, err := readPrefixed(r)
			if err != nil {
				return Header{}, fmt.Errorf("sps: value of %q: %w", kw, err)
			}
			if kw == "source_name" {
				hdr.SourceName = s
			}
		case kindInt:
			var v int32
			if err := binary.Read(r, binary.LittleEndian, &v); err != nil {
				return Header{}, fmt.Errorf("sps: value of %q: %w", kw, err)
			}
			switch kw {
			case "telescope_id":
				hdr.TelescopeID = int(v)
			case "machine_id":
				hdr.MachineID = int(v)
			case "data_type":
				hdr.DataType = int(v)
			case "nchans":
				hdr.NChans = int(v)
			case "nbits":
				hdr.NBits = int(v)
			case "nifs":
				hdr.NIFs = int(v)
			case "nsamples":
				hdr.NSamples = int(v)
			}
		case kindDouble:
			var v float64
			if err := binary.Read(r, binary.LittleEndian, &v); err != nil {
				return Header{}, fmt.Errorf("sps: value of %q: %w", kw, err)
			}
			switch kw {
			case "src_raj":
				hdr.SrcRAJ = v
			case "src_dej":
				hdr.SrcDeJ = v
			case "tstart":
				hdr.TStartMJD = v
			case "tsamp":
				hdr.TsampSec = v
			case "fch1":
				hdr.Fch1MHz = v
			case "foff":
				hdr.FoffMHz = v
			}
		case kindFlag:
			// no value
		}
	}
	if err := hdr.Validate(); err != nil {
		return Header{}, err
	}
	return hdr, nil
}

// readChunk is the size of the buffered reader Read decodes through: the
// only bytes of the data block ever held in encoded form.
const readChunk = 1 << 16

// readDataHeader is ReadHeader plus the bound on a header-declared data
// block, checked before any of it is read or allocated.
func readDataHeader(r io.Reader) (Header, error) {
	hdr, err := ReadHeader(r)
	if err == nil && hdr.NSamples*hdr.NChans > maxSamples {
		err = fmt.Errorf("sps: %d×%d data block exceeds %d values", hdr.NSamples, hdr.NChans, maxSamples)
	}
	return hdr, err
}

// dataSamples resolves the sample count of a data block whose stream ended,
// with cause, after n bytes — the checks Read and ParseRaw share. A declared
// nsamples must be supplied in full (bytes past it are ignored); otherwise
// the block must hold at most maxSamples values and whole samples only.
func dataSamples(hdr Header, n int, cause error) (int, error) {
	rowBytes := hdr.NChans * hdr.NBits / 8
	switch need := hdr.NSamples * rowBytes; {
	case hdr.NSamples > 0 && n < need:
		if cause == io.EOF && n > 0 {
			cause = io.ErrUnexpectedEOF
		}
		return 0, fmt.Errorf("sps: reading %d data bytes: %w", need, cause)
	case hdr.NSamples > 0:
		return hdr.NSamples, nil
	case n/(hdr.NBits/8) > maxSamples:
		return 0, fmt.Errorf("sps: data block exceeds %d values", maxSamples)
	case n%rowBytes != 0:
		return 0, fmt.Errorf("sps: data block of %d bytes is not a whole number of %d-byte samples", n, rowBytes)
	}
	return n / rowBytes, nil
}

// ParseRaw parses a complete filterbank held in memory without decoding it:
// the header, with NSamples derived when absent, and a zero-copy slice of
// exactly its data bytes. It accepts and rejects exactly what Read does.
func ParseRaw(raw []byte) (Header, []byte, error) {
	r := bytes.NewReader(raw)
	hdr, err := readDataHeader(r)
	if err == nil {
		hdr.NSamples, err = dataSamples(hdr, r.Len(), io.EOF)
	}
	if err != nil {
		return Header{}, nil, err
	}
	data := raw[len(raw)-r.Len():]
	return hdr, data[:hdr.NSamples*hdr.NChans*hdr.NBits/8], nil
}

// Read parses a complete filterbank (header + data) from r. When the
// header carries nsamples the data block must supply exactly that many
// samples; otherwise samples are read to EOF and NSamples is derived. The
// samples decode straight out of the read buffer into Data, so a read costs
// one float32 block, never an encoded twin of the file beside it.
func Read(r io.Reader) (*Filterbank, error) {
	br := bufio.NewReaderSize(r, readChunk)
	hdr, err := readDataHeader(br)
	if err != nil {
		return nil, err
	}
	bytesPer := hdr.NBits / 8
	if hdr.NSamples > 0 {
		data := make([]float32, hdr.NSamples*hdr.NChans)
		if n, ragged, err := readValues(br, hdr.NBits, data); n < len(data) {
			_, err = dataSamples(hdr, n*bytesPer+ragged, err)
			return nil, err
		}
		return &Filterbank{Header: hdr, Data: data}, nil
	}
	// Same total-value bound as the explicit-nsamples path: asking for one
	// value beyond it makes the overflow detectable.
	var data []float32
	for {
		room := min(readChunk, maxSamples+1-len(data))
		data = slices.Grow(data, room)
		n, ragged, err := readValues(br, hdr.NBits, data[len(data):len(data)+room])
		data = data[:len(data)+n]
		if err == io.EOF || len(data) > maxSamples {
			if hdr.NSamples, err = dataSamples(hdr, len(data)*bytesPer+ragged, io.EOF); err != nil {
				return nil, err
			}
			return &Filterbank{Header: hdr, Data: data}, nil
		}
		if err != nil {
			return nil, fmt.Errorf("sps: reading data: %w", err)
		}
	}
}

// readValues decodes nbits-wide samples from br into dst until dst is full
// or the reader fails, peeking each chunk in br's own buffer and decoding it
// in place. It returns the values decoded, the byte count of a trailing
// partial value the stream ended inside, and the reader's error (io.EOF
// when the stream ended before dst filled; nil only when dst is full).
func readValues(br *bufio.Reader, nbits int, dst []float32) (n, ragged int, err error) {
	bytesPer := nbits / 8
	for n < len(dst) {
		chunk, err := br.Peek(min((len(dst)-n)*bytesPer, readChunk))
		k := len(chunk) / bytesPer
		decodeValues(dst[n:n+k], chunk, nbits)
		n += k
		if err != nil {
			return n, len(chunk) - k*bytesPer, err
		}
		_, _ = br.Discard(k * bytesPer) // what Peek just returned: cannot fail
	}
	return n, 0, nil
}

// decodeValues decodes len(dst) little-endian nbits-wide samples from raw.
func decodeValues(dst []float32, raw []byte, nbits int) {
	switch nbits {
	case 8:
		for i, b := range raw[:len(dst)] {
			dst[i] = float32(b)
		}
	case 32:
		for i := range dst {
			dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
	}
}

// writePrefixed writes one length-prefixed SIGPROC string.
func writePrefixed(w io.Writer, s string) error {
	if err := binary.Write(w, binary.LittleEndian, int32(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

// WriteHeader serialises the header in SIGPROC binary form.
func WriteHeader(w io.Writer, hdr Header) error {
	if err := hdr.Validate(); err != nil {
		return err
	}
	if err := writePrefixed(w, headerStart); err != nil {
		return err
	}
	writeKw := func(kw string, v any) error {
		if err := writePrefixed(w, kw); err != nil {
			return err
		}
		if s, ok := v.(string); ok {
			return writePrefixed(w, s)
		}
		return binary.Write(w, binary.LittleEndian, v)
	}
	if hdr.SourceName != "" {
		if err := writeKw("source_name", hdr.SourceName); err != nil {
			return err
		}
	}
	for _, kv := range []struct {
		kw string
		v  any
	}{
		{"telescope_id", int32(hdr.TelescopeID)},
		{"machine_id", int32(hdr.MachineID)},
		{"data_type", int32(hdr.DataType)},
		{"src_raj", hdr.SrcRAJ},
		{"src_dej", hdr.SrcDeJ},
		{"tstart", hdr.TStartMJD},
		{"tsamp", hdr.TsampSec},
		{"fch1", hdr.Fch1MHz},
		{"foff", hdr.FoffMHz},
		{"nchans", int32(hdr.NChans)},
		{"nbits", int32(hdr.NBits)},
		{"nifs", int32(hdr.NIFs)},
		{"nsamples", int32(hdr.NSamples)},
	} {
		if err := writeKw(kv.kw, kv.v); err != nil {
			return err
		}
	}
	return writePrefixed(w, headerEnd)
}

// Write serialises the filterbank (header + data) in SIGPROC binary form.
// 8-bit output clamps samples to [0,255] with rounding; 32-bit output is
// lossless.
func Write(w io.Writer, fb *Filterbank) error {
	if want := fb.NSamples * fb.NChans; len(fb.Data) != want {
		return fmt.Errorf("sps: data has %d values, header says %d", len(fb.Data), want)
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if err := WriteHeader(bw, fb.Header); err != nil {
		return err
	}
	switch fb.NBits {
	case 8:
		buf := make([]byte, len(fb.Data))
		for i, v := range fb.Data {
			x := math.Round(float64(v))
			if x < 0 {
				x = 0
			} else if x > 255 {
				x = 255
			}
			buf[i] = byte(x)
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	case 32:
		buf := make([]byte, 4*len(fb.Data))
		for i, v := range fb.Data {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	default:
		return fmt.Errorf("sps: nbits must be 8 or 32, got %d", fb.NBits)
	}
	return bw.Flush()
}
