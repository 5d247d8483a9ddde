package sps

import (
	"bufio"
	"fmt"
	"io"
	"slices"
)

// Block is one gulp of a filterbank observation: Rows consecutive samples
// starting at absolute sample index Start, sample-major as in
// Filterbank.Data, held decoded (Data) or as raw SIGPROC bytes (Raw) that
// the search decodes tile by tile as it stages them. Consecutive blocks
// overlap: the first overlap rows of a block repeat the tail of the
// previous one, carrying the dispersion lookahead a block-local kernel
// needs, so a trial whose maximum channel shift is at most the overlap can
// produce its output samples [Start, Start+block) from this block alone.
// Data and Raw are reused between Next calls — consume or copy them first.
type Block struct {
	// Start is the absolute sample index of the block's first row.
	Start int
	// Rows is the number of samples in the block.
	Rows int
	// Last reports that no further blocks follow: Start+Rows is the total
	// sample count of the observation.
	Last bool
	// Data holds decoded samples, Data[t*NChans+ch] as in Filterbank,
	// when NBits is zero.
	Data []float32
	// Raw holds the Rows × NChans samples as little-endian NBits-wide
	// SIGPROC values when NBits is non-zero.
	Raw   []byte
	NBits int
}

// values returns rows [r0, r1) of the block, sample-major: a zero-copy
// sub-slice of Data, or those rows of Raw decoded into scratch.
func (b *Block) values(r0, r1, nchan int, scratch *[]float32) []float32 {
	if b.NBits == 0 {
		return b.Data[r0*nchan : r1*nchan]
	}
	*scratch = slices.Grow((*scratch)[:0], (r1-r0)*nchan)[:(r1-r0)*nchan]
	decodeValues(*scratch, b.Raw[r0*nchan*b.NBits/8:], b.NBits)
	return *scratch
}

// BlockReader reads a SIGPROC filterbank as fixed-size gulps with a
// dispersion-overlap region carried between them, so an observation of any
// length is processed in memory bounded by (block+overlap) × NChans raw
// samples, carried undecoded (Block.Raw).
// The header is parsed eagerly by NewBlockReader with the same strictness
// as Read; data truncation (a header-declared sample count the body cannot
// supply, or a trailing partial sample) is an error, never a short block
// silently standing in for the real one.
type BlockReader struct {
	hdr     Header
	r       *bufio.Reader
	block   int
	overlap int

	started bool
	done    bool
	read    int    // fresh samples read so far
	raw     []byte // the gulp's bytes, carried overlap rows first
	rows    int    // rows currently held in raw
}

// NewBlockReader parses the SIGPROC header from r and prepares gulps of
// block fresh samples each, with overlap samples carried between
// consecutive blocks. It allocates the (block+overlap)-sample buffer up
// front; the same bounds as Read apply to one gulp's value count.
func NewBlockReader(r io.Reader, block, overlap int) (*BlockReader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	hdr, err := ReadHeader(br)
	if err != nil {
		return nil, err
	}
	return newBlockReaderAt(hdr, br, block, overlap)
}

// newBlockReaderAt wraps a reader already positioned at the first data
// byte of an observation with the given (validated) header.
func newBlockReaderAt(hdr Header, r io.Reader, block, overlap int) (*BlockReader, error) {
	if err := hdr.Validate(); err != nil {
		return nil, err
	}
	if block < 1 {
		return nil, fmt.Errorf("sps: block of %d samples must be >= 1", block)
	}
	if overlap < 0 {
		return nil, fmt.Errorf("sps: block overlap %d must be >= 0", overlap)
	}
	// Overflow-safe gulp bound: reject before block+overlap (or its product
	// with the channel count) can wrap — a hostile block size arrives
	// straight off the network via POST /v1/detect/stream.
	if block > maxSamples-overlap || block+overlap > maxSamples/hdr.NChans {
		return nil, fmt.Errorf("sps: %d+%d-sample gulp of %d channels exceeds %d values", block, overlap, hdr.NChans, maxSamples)
	}
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	gulp := block + overlap
	return &BlockReader{
		hdr:     hdr,
		r:       br,
		block:   block,
		overlap: overlap,
		raw:     make([]byte, gulp*hdr.NChans*(hdr.NBits/8)),
	}, nil
}

// Header returns the observation header. Header.NSamples is the on-disk
// declaration: zero when the stream's length is unknown until EOF.
func (br *BlockReader) Header() Header { return br.hdr }

// Next returns the next block, or io.EOF after the last one. The returned
// Block (including Raw) is only valid until the following Next call.
func (br *BlockReader) Next() (*Block, error) {
	if br.done {
		return nil, io.EOF
	}
	rowBytes := br.hdr.NChans * br.hdr.NBits / 8

	keep := 0
	want := br.block + br.overlap
	if br.started {
		// Carry the overlap: the last overlap rows become the head of the
		// next gulp.
		keep = br.overlap
		copy(br.raw, br.raw[(br.rows-keep)*rowBytes:br.rows*rowBytes])
		want = br.block
	}
	if br.hdr.NSamples > 0 {
		if remaining := br.hdr.NSamples - br.read; want > remaining {
			want = remaining
		}
	}

	got := 0
	if want > 0 {
		n, err := io.ReadFull(br.r, br.raw[keep*rowBytes:(keep+want)*rowBytes])
		switch err {
		case nil:
		case io.EOF, io.ErrUnexpectedEOF:
			if br.hdr.NSamples > 0 {
				return nil, fmt.Errorf("sps: data block truncated: %d of %d samples", br.read+n/rowBytes, br.hdr.NSamples)
			}
			if n%rowBytes != 0 {
				return nil, fmt.Errorf("sps: data block tail of %d bytes is not a whole number of %d-byte samples", n%rowBytes, rowBytes)
			}
			br.done = true
		default:
			return nil, fmt.Errorf("sps: reading data block: %w", err)
		}
		got = n / rowBytes
	}
	if br.hdr.NSamples > 0 && br.read+got == br.hdr.NSamples {
		br.done = true
	}
	if !br.done {
		// Unknown length and a full gulp: peek so a stream ending exactly
		// on a gulp boundary is flagged Last now rather than via a
		// degenerate fresh-less block.
		if _, err := br.r.Peek(1); err == io.EOF {
			br.done = true
		}
	}
	if !br.started && got == 0 {
		// Empty (but well-formed) observation: no blocks at all.
		br.done = true
		return nil, io.EOF
	}

	blk := &Block{
		Start: br.read - keep,
		Rows:  keep + got,
		Last:  br.done,
		Raw:   br.raw[:(keep+got)*rowBytes],
		NBits: br.hdr.NBits,
	}
	br.read += got
	br.rows = keep + got
	br.started = true
	return blk, nil
}
