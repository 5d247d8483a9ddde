package sps

import (
	"context"
	"time"

	"drapid/internal/rdd"
)

// This file is the dedispersion kernel (DESIGN.md §11). The sample-major
// filterbank layout (Data[t*NChans+ch]) makes a per-channel shifted walk
// read one float32 every NChans values, so a 64-byte cache line delivers
// four useful bytes and the walk is bound by wasted memory traffic, not
// arithmetic. The kernel therefore stages a data block ONCE into
// channel-major order — each channel's samples contiguous, zero-DM filter
// fused in — and then accumulates trials in L1-sized time tiles: the output
// tile stays resident while the channels' contiguous spans stream through
// four at a time, so every fetched line is fully consumed, the tile is
// loaded and stored once per four channels, and the staging cost is
// amortised over every trial of a gulp (the whole trial grid on the
// one-gulp search).
//
// For every output sample the channels accumulate in ascending channel
// order, the order of the per-sample reference loops in ref_test.go, so the
// kernel is bit-identical to them (the randomized sweep in equiv_test.go is
// the gate).

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

// stage fills cm from a block of rows × nchan samples, tile by tile over
// the pool: each tile takes its rows from the block (Block.values, which
// decodes raw ones into worker scratch), and tiles write disjoint rows of
// every column, so the staging is byte-identical for any worker count.
// With zeroDM the zero-DM filter is fused into the tile (stageTile) instead
// of materialising a filtered copy of the block first. The tiles' busy time
// lands on sc: the row means under StageZeroDM, the decode and the
// transpose under StageDedisperse.
func (cm *chanMajor) stage(ctx context.Context, exec rdd.ExecConfig, blk *Block, nchan int, zeroDM bool, sc *stageClock) error {
	rows := blk.Rows
	cm.reset(rows, nchan)
	return rdd.RunParallel(ctx, exec, (rows+stageRows-1)/stageRows, func(k int) {
		r0 := k * stageRows
		t0 := time.Now()
		bufs := trialPool.Get().(*trialBuffers)
		defer trialPool.Put(bufs)
		tile := blk.values(r0, min(r0+stageRows, rows), nchan, &bufs.tile)
		if !zeroDM {
			cm.stageTile(tile, r0, nil)
			sc.add(StageDedisperse, time.Since(t0))
			return
		}
		t1 := time.Now()
		var buf [stageRows]float32
		mean := rowMeans(tile, nchan, buf[:0])
		t2 := time.Now()
		cm.stageTile(tile, r0, mean)
		sc.add3(StageZeroDM, t2.Sub(t1), StageDedisperse, t1.Sub(t0)+time.Since(t2), "", 0)
	})
}

// rowMeans appends the zero-DM mean of each row of the sample-major tile
// to mean: ZeroDMFilter's float64 row sum, rounded to float32 exactly as it
// is there.
func rowMeans(tile []float32, nchan int, mean []float32) []float32 {
	for r := 0; r < len(tile); r += nchan {
		var sum float64
		for _, v := range tile[r : r+nchan] {
			sum += float64(v)
		}
		mean = append(mean, float32(sum/float64(nchan)))
	}
	return mean
}

// stageTile transposes the sample-major tile of rows [r0, r0+stageRows)
// into cm. A non-nil mean holds the tile's zero-DM row means, subtracted on
// the way through — col[r] = tile[(r−r0)*nchan+ch] − mean[r−r0], the same
// float32 arithmetic as ZeroDMFilter, so the staged block is bit-identical
// to staging the filtered copy.
func (cm *chanMajor) stageTile(tile []float32, r0 int, mean []float32) {
	rows, nchan := cm.rows, cm.nchan
	r1 := min(r0+stageRows, rows)
	if nchan == 1 && mean == nil {
		copy(cm.data[r0:r1], tile)
		return
	}
	for ch := 0; ch < nchan; ch++ {
		col := cm.data[ch*rows+r0 : ch*rows+r1]
		if mean == nil {
			for r := range col {
				col[r] = tile[r*nchan+ch]
			}
			continue
		}
		for r := range col {
			col[r] = tile[r*nchan+ch] - mean[r]
		}
	}
}

// col returns channel ch's contiguous sample column.
func (cm *chanMajor) col(ch int) []float32 { return cm.data[ch*cm.rows : (ch+1)*cm.rows] }

// span returns the n samples of channel ch's column starting at row off.
func (cm *chanMajor) span(ch, off, n int) []float32 { return cm.col(ch)[off:][:n] }

// tileSamples is the time-tile length every hot loop of the search walks
// (DESIGN.md §11): a float64 tile of 4096 samples is 32 KiB, so the tile
// being written stays L1-resident while several input streams pass it, and
// the tile-sized scratch of the downstream kernels (prefix sums, the boxcar
// ladder's window sums) stays in L2 whatever the series length.
const tileSamples = 1 << 12

// planTileSamples picks the time-tile length of the accumulation:
// the largest power of two no longer than the series, capped at
// tileSamples. The floor keeps degenerate series from shattering into
// per-sample tiles.
func planTileSamples(n int) int {
	tile := tileSamples
	for tile > n && tile > 64 {
		tile >>= 1
	}
	return tile
}

// accumulate adds channels [chLo, chHi) of cm into the output tile
// out[t0:t1): out[t] += col(ch)[srcOff + t + shifts[ch]]. The caller
// guarantees every read lands inside the staged block. Four channels stream
// past the tile per pass — one load and store of the tile per four channels
// instead of per channel — with the adds kept in ascending-channel order,
// (((dst+a)+b)+c)+d, so each output sample's accumulation order is the
// reference order exactly. T is float64 for a full-band trial and float32
// for a stage-1 subband series.
func accumulate[T float32 | float64](cm *chanMajor, shifts []int, chLo, chHi, srcOff, t0, t1 int, out []T) {
	dst := out[t0:t1]
	off, n := srcOff+t0, len(dst)
	ch := chLo
	for ; ch+4 <= chHi; ch += 4 {
		a, b := cm.span(ch, off+shifts[ch], n), cm.span(ch+1, off+shifts[ch+1], n)
		c, d := cm.span(ch+2, off+shifts[ch+2], n), cm.span(ch+3, off+shifts[ch+3], n)
		for t := range dst {
			dst[t] = (((dst[t] + T(a[t])) + T(b[t])) + T(c[t])) + T(d[t])
		}
	}
	for ; ch < chHi; ch++ {
		for t, v := range cm.span(ch, off+shifts[ch], n) {
			dst[t] += T(v)
		}
	}
}

// dedisperse runs one series' full accumulation of channels [chLo, chHi)
// over the staged block: out[t] = Σ_ch col(ch)[srcOff + t + shifts[ch]] for
// t in [0, n), walked in L1-sized time tiles, each zeroed as it is reached;
// out is reused when its capacity suffices.
func dedisperse[T float32 | float64](cm *chanMajor, shifts []int, chLo, chHi, srcOff, n int, out []T) []T {
	if cap(out) < n {
		out = make([]T, n)
	}
	out = out[:n]
	tile := planTileSamples(n)
	for t0 := 0; t0 < n; t0 += tile {
		t1 := min(t0+tile, n)
		clear(out[t0:t1])
		accumulate(cm, shifts, chLo, chHi, srcOff, t0, t1, out)
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
