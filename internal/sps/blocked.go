package sps

import "fmt"

// This file is the cache-blocked dedispersion kernel (DESIGN.md §11). The
// sample-major filterbank layout (Data[t*NChans+ch]) is what makes the
// scalar kernels slow: each channel's shifted walk reads one float32 every
// NChans values, so a 64-byte cache line delivers four useful bytes and the
// kernel is bound by wasted memory traffic, not arithmetic. The blocked
// kernel stages a data block ONCE into channel-major order — each channel's
// samples contiguous — and then accumulates trials in L1-sized time tiles:
// the output tile stays resident while one channel's contiguous span
// streams through, so every fetched line is fully consumed and the staging
// cost is amortised over the whole trial grid (batch) or every trial of a
// gulp (streaming).
//
// Equivalence is exact, not approximate: for every output sample the
// channels accumulate in ascending channel order, precisely the order
// Dedisperse and SubbandPlan.stage1 use, so the blocked kernels are
// bit-identical to the scalar oracle (Config.Plan.Kernel selects between
// them; the randomized sweep in equiv_test.go is the gate).

// KernelKind selects the dedispersion kernel implementation of a search.
// The dedispersion *plan* (brute vs subband) decides what arithmetic runs;
// the kernel decides how it walks memory — both kernels produce
// bit-identical output for either plan.
type KernelKind string

const (
	// KernelAuto (the zero value) selects the blocked kernel, the
	// production default.
	KernelAuto KernelKind = ""
	// KernelBlocked forces the cache-blocked kernel: channel-major staging
	// plus tiled accumulation.
	KernelBlocked KernelKind = "blocked"
	// KernelScalar forces the original sample-major kernels — the slow,
	// obviously-correct oracle the blocked kernel is tested against.
	KernelScalar KernelKind = "scalar"
)

// ParseKernelKind maps the spelling of a dedispersion kernel to its
// KernelKind: "" and "auto" select the blocked default.
func ParseKernelKind(s string) (KernelKind, error) {
	switch s {
	case "", "auto":
		return KernelAuto, nil
	case string(KernelBlocked):
		return KernelBlocked, nil
	case string(KernelScalar):
		return KernelScalar, nil
	}
	return KernelAuto, errUnknownKernel(s)
}

func errUnknownKernel(s string) error {
	return fmt.Errorf("sps: unknown dedispersion kernel %q (want auto, blocked or scalar)", s)
}

// validKernel rejects unknown kernel spellings at search setup.
func validKernel(k KernelKind) error {
	switch k {
	case KernelAuto, KernelBlocked, KernelScalar:
		return nil
	}
	return errUnknownKernel(string(k))
}

// maxShiftOf returns the largest entry of a non-negative shift table —
// the trailing samples a dedispersed series loses.
func maxShiftOf(shifts []int) int {
	m := 0
	for _, s := range shifts {
		if s > m {
			m = s
		}
	}
	return m
}

// chanMajor is the channel-major staging of one data block: channel ch's
// rows [0, rows) are the contiguous slice data[ch*rows : (ch+1)*rows].
type chanMajor struct {
	data  []float32
	rows  int
	nchan int
}

// stageRows is the transpose tile height: a tile of stageRows × NChans
// source values is revisited once per channel, so it should sit within L2
// while the destination writes stream sequentially.
const stageRows = 256

// stage fills cm from a sample-major block of rows × nchan values,
// reusing cm's buffer when it suffices.
func (cm *chanMajor) stage(data []float32, rows, nchan int) {
	cm.reset(rows, nchan)
	for r0 := 0; r0 < rows; r0 += stageRows {
		cm.stageTile(data, r0)
	}
}

// reset sizes cm for a block of rows × nchan values, reusing its buffer
// when it suffices; the caller then fills every stageRows-row tile.
func (cm *chanMajor) reset(rows, nchan int) {
	need := rows * nchan
	if cap(cm.data) < need {
		cm.data = make([]float32, need)
	}
	cm.data = cm.data[:need]
	cm.rows, cm.nchan = rows, nchan
}

// stageTile transposes the tile of rows [r0, r0+stageRows) from the
// sample-major block into cm. Tiles write disjoint ranges of every column,
// so they may be staged concurrently.
func (cm *chanMajor) stageTile(data []float32, r0 int) {
	rows, nchan := cm.rows, cm.nchan
	r1 := min(r0+stageRows, rows)
	if nchan == 1 {
		copy(cm.data[r0:r1], data[r0:r1])
		return
	}
	for ch := 0; ch < nchan; ch++ {
		col := cm.data[ch*rows : (ch+1)*rows]
		for r := r0; r < r1; r++ {
			col[r] = data[r*nchan+ch]
		}
	}
}

// col returns channel ch's contiguous sample column.
func (cm *chanMajor) col(ch int) []float32 { return cm.data[ch*cm.rows : (ch+1)*cm.rows] }

// planTileSamples picks the time-tile length of the blocked accumulation:
// the largest power of two no longer than the series whose float64 output
// tile (8 bytes a sample, 32 KiB at the 4096 cap) stays L1-resident while
// a channel's source span streams past it. The floor keeps degenerate
// series from shattering into per-sample tiles.
func planTileSamples(n int) int {
	tile := 1 << 12
	for tile > n && tile > 64 {
		tile >>= 1
	}
	return tile
}

// accumulate adds channels [chLo, chHi) into the float64 output tile
// out[t0:t1): out[t] += col(ch)[srcOff + t + shifts[ch]]. The caller
// guarantees every read lands inside the staged block (the same geometry
// the scalar kernels enforce). Channels ascend, so each output sample's
// float64 accumulation order matches Dedisperse exactly.
func (cm *chanMajor) accumulate(shifts []int, chLo, chHi, srcOff, t0, t1 int, out []float64) {
	for ch := chLo; ch < chHi; ch++ {
		src := cm.col(ch)[srcOff+shifts[ch]+t0:]
		dst := out[t0:t1]
		for t, v := range src[:len(dst)] {
			dst[t] += float64(v)
		}
	}
}

// accumulateF32 is accumulate with float32 accumulation — the subband
// stage-1 arithmetic, matching SubbandPlan.stage1's per-sample order.
func (cm *chanMajor) accumulateF32(shifts []int, chLo, chHi, srcOff, t0, t1 int, out []float32) {
	for ch := chLo; ch < chHi; ch++ {
		src := cm.col(ch)[srcOff+shifts[ch]+t0:]
		dst := out[t0:t1]
		for t, v := range src[:len(dst)] {
			dst[t] += v
		}
	}
}

// dedisperse runs one trial's full accumulation over the staged block:
// out[t] = Σ_ch col(ch)[srcOff + t + shifts[ch]] for t in [0, n), walked in
// L1-sized time tiles. out is zeroed here; the result is bit-identical to
// Dedisperse over the same rows.
func (cm *chanMajor) dedisperse(shifts []int, srcOff, n int, out []float64) []float64 {
	if cap(out) < n {
		out = make([]float64, n)
	}
	out = out[:n]
	for t := range out {
		out[t] = 0
	}
	tile := planTileSamples(n)
	for t0 := 0; t0 < n; t0 += tile {
		t1 := t0 + tile
		if t1 > n {
			t1 = n
		}
		cm.accumulate(shifts, 0, cm.nchan, srcOff, t0, t1, out)
	}
	return out
}

// dedisperseF32 is dedisperse for a float32 output series over a channel
// range — one subband of stage 1.
func (cm *chanMajor) dedisperseF32(shifts []int, chLo, chHi, srcOff, n int, out []float32) []float32 {
	if cap(out) < n {
		out = make([]float32, n)
	}
	out = out[:n]
	for t := range out {
		out[t] = 0
	}
	tile := planTileSamples(n)
	for t0 := 0; t0 < n; t0 += tile {
		t1 := t0 + tile
		if t1 > n {
			t1 = n
		}
		cm.accumulateF32(shifts, chLo, chHi, srcOff, t0, t1, out)
	}
	return out
}

// tileRanges splits [0, n) into planTileSamples-aligned chunks — the work
// units of the tile-parallel path. The boundaries depend only on n, never
// on the worker count, and tiles write disjoint output ranges with the
// fixed per-sample channel order, so any fan-out of these units folds to
// the identical series.
func tileRanges(n int) [][2]int {
	tile := planTileSamples(n)
	var out [][2]int
	for t0 := 0; t0 < n; t0 += tile {
		t1 := t0 + tile
		if t1 > n {
			t1 = n
		}
		out = append(out, [2]int{t0, t1})
	}
	return out
}
