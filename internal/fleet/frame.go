package fleet

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"drapid/internal/spe"
	"drapid/internal/sps"
)

// This file is the binary event framing of the shard protocol
// (DESIGN.md §12): the hot records of the return path — single-pulse
// events — move as fixed-width little-endian structs, not as text.
//
// A frame stream is a sequence of frames, each
//
//	type (1 byte) | payload length (uint32 LE) | payload
//
// and is terminated by exactly one stats or error frame: a stream that
// ends without a terminator is a failed attempt.
//
//	'E' events: payload = n × 36-byte records, each
//	    dm float64 | snr float64 | time float64 | sample int64 | downfact int32
//	    (all little-endian; floats as IEEE-754 bits, so decode is
//	    bit-exact against the worker's values)
//	'S' stats (terminal, success): payload =
//	    trials int64 | samples int64 | events int64
//	    | plan length uint16 | plan
//	    | stage count uint16 | { name length uint16 | name | seconds float64 }×
//	'R' error (terminal, failure): payload = UTF-8 message

const (
	// MediaFrames is the media type of every shard response.
	MediaFrames = "application/x-drapid-frames"

	frameEvents = 'E'
	frameStats  = 'S'
	frameError  = 'R'

	// eventWireSize is the fixed record width: 3 float64 + int64 + int32.
	eventWireSize = 36

	// maxFramePayload bounds one frame (64 MiB ≈ 1.9M events): a decoder
	// never allocates unboundedly on a hostile or corrupt stream, and an
	// encoder splits larger batches across frames.
	maxFramePayload = 64 << 20
	// maxErrorPayload bounds terminal message frames.
	maxErrorPayload = 1 << 20
)

// appendEvents appends one events frame holding the given records
// (caller guarantees len(events) ≤ maxFramePayload/eventWireSize).
func appendEvents(dst []byte, events []spe.SPE) []byte {
	dst = append(dst, frameEvents)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(events)*eventWireSize))
	for _, e := range events {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.DM))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.SNR))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.Time))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(e.Sample))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(e.Downfact)))
	}
	return dst
}

// appendStats appends the terminal stats frame.
func appendStats(dst []byte, stats sps.Stats) []byte {
	dst = append(dst, frameStats)
	lenAt := len(dst)
	dst = append(dst, 0, 0, 0, 0) // payload length, patched below
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(stats.Trials)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(stats.Samples))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(stats.Events)))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(stats.Plan)))
	dst = append(dst, stats.Plan...)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(stats.StageSeconds)))
	for name, secs := range stats.StageSeconds {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(name)))
		dst = append(dst, name...)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(secs))
	}
	binary.LittleEndian.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-4))
	return dst
}

// appendError appends the terminal error frame.
func appendError(dst []byte, msg string) []byte {
	if len(msg) > maxErrorPayload {
		msg = msg[:maxErrorPayload]
	}
	dst = append(dst, frameError)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(msg)))
	return append(dst, msg...)
}

// frameWriter streams frames to one response, reusing a single buffer
// across batches so the encode path allocates only on growth.
type frameWriter struct {
	w   io.Writer
	buf []byte
}

// writeEvents encodes and writes a batch, splitting it across frames
// when it exceeds the payload bound.
func (fw *frameWriter) writeEvents(events []spe.SPE) error {
	const maxPerFrame = maxFramePayload / eventWireSize
	for len(events) > 0 {
		n := min(len(events), maxPerFrame)
		fw.buf = appendEvents(fw.buf[:0], events[:n])
		if _, err := fw.w.Write(fw.buf); err != nil {
			return err
		}
		events = events[n:]
	}
	return nil
}

func (fw *frameWriter) writeStats(stats sps.Stats) error {
	fw.buf = appendStats(fw.buf[:0], stats)
	_, err := fw.w.Write(fw.buf)
	return err
}

func (fw *frameWriter) writeError(msg string) error {
	fw.buf = appendError(fw.buf[:0], msg)
	_, err := fw.w.Write(fw.buf)
	return err
}

// frameReader decodes a frame stream, reusing its payload buffer and
// event slice across frames — the per-batch decode path allocates
// nothing once the buffers have grown to the stream's batch size.
type frameReader struct {
	r   io.Reader
	hdr [5]byte
	buf []byte
	evs []spe.SPE
}

// next reads one frame, returning its type and raw payload (valid until
// the next call). io.EOF is returned untranslated at a clean frame
// boundary so callers can distinguish truncation mid-frame.
func (fr *frameReader) next() (byte, []byte, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("fleet: frame header truncated")
		}
		return 0, nil, err
	}
	typ := fr.hdr[0]
	size := binary.LittleEndian.Uint32(fr.hdr[1:])
	switch typ {
	case frameEvents:
		if size > maxFramePayload {
			return 0, nil, fmt.Errorf("fleet: events frame of %d bytes exceeds the %d-byte bound", size, maxFramePayload)
		}
		if size%eventWireSize != 0 {
			return 0, nil, fmt.Errorf("fleet: events frame payload %d is not a multiple of the %d-byte record", size, eventWireSize)
		}
	case frameStats:
		if size > maxFramePayload {
			return 0, nil, fmt.Errorf("fleet: stats frame of %d bytes exceeds the %d-byte bound", size, maxFramePayload)
		}
	case frameError:
		if size > maxErrorPayload {
			return 0, nil, fmt.Errorf("fleet: error frame of %d bytes exceeds the %d-byte bound", size, maxErrorPayload)
		}
	default:
		return 0, nil, fmt.Errorf("fleet: unknown frame type 0x%02x", typ)
	}
	if cap(fr.buf) < int(size) {
		fr.buf = make([]byte, size)
	}
	fr.buf = fr.buf[:size]
	if _, err := io.ReadFull(fr.r, fr.buf); err != nil {
		return 0, nil, fmt.Errorf("fleet: frame payload truncated: %w", err)
	}
	return typ, fr.buf, nil
}

// events decodes an events payload into the reader's reused slice.
func (fr *frameReader) events(payload []byte) []spe.SPE {
	n := len(payload) / eventWireSize
	if cap(fr.evs) < n {
		fr.evs = make([]spe.SPE, n)
	}
	fr.evs = fr.evs[:n]
	for i := 0; i < n; i++ {
		rec := payload[i*eventWireSize:]
		fr.evs[i] = spe.SPE{
			DM:       math.Float64frombits(binary.LittleEndian.Uint64(rec)),
			SNR:      math.Float64frombits(binary.LittleEndian.Uint64(rec[8:])),
			Time:     math.Float64frombits(binary.LittleEndian.Uint64(rec[16:])),
			Sample:   int64(binary.LittleEndian.Uint64(rec[24:])),
			Downfact: int(int32(binary.LittleEndian.Uint32(rec[32:]))),
		}
	}
	return fr.evs
}

// decodeStats decodes the terminal stats payload.
func decodeStats(payload []byte) (sps.Stats, error) {
	var stats sps.Stats
	if len(payload) < 26 {
		return stats, fmt.Errorf("fleet: stats payload of %d bytes is shorter than the fixed header", len(payload))
	}
	stats.Trials = int(int64(binary.LittleEndian.Uint64(payload)))
	stats.Samples = int64(binary.LittleEndian.Uint64(payload[8:]))
	stats.Events = int(int64(binary.LittleEndian.Uint64(payload[16:])))
	p := payload[24:]
	take := func(n int, what string) ([]byte, error) {
		if len(p) < n {
			return nil, fmt.Errorf("fleet: stats payload truncated reading %s", what)
		}
		out := p[:n]
		p = p[n:]
		return out, nil
	}
	planLen, err := take(2, "plan length")
	if err != nil {
		return stats, err
	}
	plan, err := take(int(binary.LittleEndian.Uint16(planLen)), "plan")
	if err != nil {
		return stats, err
	}
	stats.Plan = string(plan)
	nStages, err := take(2, "stage count")
	if err != nil {
		return stats, err
	}
	for i := 0; i < int(binary.LittleEndian.Uint16(nStages)); i++ {
		nameLen, err := take(2, "stage name length")
		if err != nil {
			return stats, err
		}
		name, err := take(int(binary.LittleEndian.Uint16(nameLen)), "stage name")
		if err != nil {
			return stats, err
		}
		secs, err := take(8, "stage seconds")
		if err != nil {
			return stats, err
		}
		if stats.StageSeconds == nil {
			stats.StageSeconds = make(map[string]float64)
		}
		stats.StageSeconds[string(name)] = math.Float64frombits(binary.LittleEndian.Uint64(secs))
	}
	if len(p) != 0 {
		return stats, fmt.Errorf("fleet: stats payload has %d trailing bytes", len(p))
	}
	return stats, nil
}
