// Package sps implements the single-pulse search frontend of the pipeline:
// the compute-bound upstream half the paper assumes has already run when it
// ingests SPE files. It turns raw time–frequency data (SIGPROC-style
// filterbanks, real or synthetic) into the spe.SPE event streams the
// DBSCAN clustering and D-RAPID identification stages consume:
//
//	filterbank ──► incoherent dedispersion (one time series per trial DM)
//	           ──► running-mean/variance normalisation
//	           ──► multi-width boxcar matched filtering + thresholding
//	           ──► spe.SPE events (DM, SNR, time, sample, downfact)
//
// Dedispersion over the configurable trial-DM grid is the
// throughput-critical hot path of real-time single-pulse search (Adámek &
// Armour 2019 profile it at >90% of such pipelines' compute). Two
// strategies are implemented, selected by Config.Plan (DESIGN.md §6):
// one-stage brute force, and the default two-stage subband plan
// (SubbandPlan, after Adámek & Armour 2020) that dedisperses channel
// groups once per coarse nominal DM and assembles fine trials from the
// subband series, with the added smearing held below half a sample by
// construction. Both run on one cache-resident kernel over a channel-major
// staging of the data (DESIGN.md §11) and fan out on the same
// worker pool the distributed engine uses (rdd.RunParallel), with
// per-task buffers reused through a sync.Pool so steady-state search
// allocates nothing per trial.
//
// One driver runs every search (DESIGN.md §7): the observation arrives as
// blocks — fixed-size gulps from BlockReader with the dispersion overlap
// carried between them, or one block holding a whole in-memory observation
// — and SearchFilterbank/SearchStream/SearchBlocks run it, with Search
// collecting the result. One gulp runs every trial's whole series through
// the kernels at once; more gulps drive stateful per-trial kernels across
// them, and the emitted events are record-for-record identical for any
// block size and worker count — which is what lets observations of
// unbounded length (or live feeds with no declared length) be searched in
// a fixed footprint.
package sps

import (
	"fmt"
	"math"
)

// Header is the metadata of one filterbank observation, mirroring the
// SIGPROC header keywords this package reads and writes.
type Header struct {
	// SourceName is the observed source ("source_name").
	SourceName string
	// TelescopeID and MachineID are SIGPROC's numeric site/backend codes.
	TelescopeID int
	MachineID   int
	// DataType is 1 for filterbank data (the only type supported here).
	DataType int
	// SrcRAJ and SrcDeJ are the pointing in SIGPROC's packed hhmmss.s /
	// ddmmss.s convention; kept verbatim for round-tripping.
	SrcRAJ, SrcDeJ float64
	// TStartMJD is the start time of the observation.
	TStartMJD float64
	// TsampSec is the sampling interval in seconds.
	TsampSec float64
	// Fch1MHz is the centre frequency of the first channel in MHz. SIGPROC
	// convention stores the highest frequency first with a negative FoffMHz.
	Fch1MHz float64
	// FoffMHz is the channel bandwidth in MHz (negative when channels
	// descend in frequency, the common case).
	FoffMHz float64
	// NChans, NBits, NIFs, NSamples shape the data block. NBits must be 8
	// (unsigned bytes) or 32 (IEEE floats); NIFs must be 1 (total power).
	NChans   int
	NBits    int
	NIFs     int
	NSamples int
}

// Validate checks the header describes data this package can process (and
// that the SIGPROC writer can serialise in a form the reader accepts).
func (h Header) Validate() error {
	switch {
	case len(h.SourceName) > maxKeyword:
		return fmt.Errorf("sps: source name of %d bytes exceeds %d", len(h.SourceName), maxKeyword)
	case h.NChans < 1 || h.NChans > maxChans:
		return fmt.Errorf("sps: nchans %d outside [1,%d]", h.NChans, maxChans)
	case h.NBits != 8 && h.NBits != 32:
		return fmt.Errorf("sps: nbits must be 8 or 32, got %d", h.NBits)
	case h.NIFs != 1:
		return fmt.Errorf("sps: only single-IF (total power) data supported, got nifs=%d", h.NIFs)
	case h.NSamples < 0 || h.NSamples > maxSamples:
		return fmt.Errorf("sps: nsamples %d outside [0,%d]", h.NSamples, maxSamples)
	case !(h.TsampSec > 0) || math.IsInf(h.TsampSec, 0):
		return fmt.Errorf("sps: tsamp must be positive and finite, got %g", h.TsampSec)
	case !(h.Fch1MHz > 0) || math.IsInf(h.Fch1MHz, 0):
		return fmt.Errorf("sps: fch1 must be positive and finite, got %g", h.Fch1MHz)
	case h.FoffMHz == 0 || math.IsNaN(h.FoffMHz) || math.IsInf(h.FoffMHz, 0):
		return fmt.Errorf("sps: foff must be non-zero and finite, got %g", h.FoffMHz)
	case h.NChans > 1 && h.Fch1MHz+float64(h.NChans-1)*h.FoffMHz <= 0:
		return fmt.Errorf("sps: channel plan crosses zero frequency (fch1=%g foff=%g nchans=%d)",
			h.Fch1MHz, h.FoffMHz, h.NChans)
	}
	return nil
}

// FreqMHz returns the centre frequency of channel ch in MHz.
func (h Header) FreqMHz(ch int) float64 { return h.Fch1MHz + float64(ch)*h.FoffMHz }

// FTopMHz returns the highest channel centre frequency — the dedispersion
// reference frequency (zero delay).
func (h Header) FTopMHz() float64 {
	if h.FoffMHz > 0 {
		return h.FreqMHz(h.NChans - 1)
	}
	return h.Fch1MHz
}

// CenterFreqGHz returns the band centre in GHz, the receiver parameter the
// downstream feature extraction wants.
func (h Header) CenterFreqGHz() float64 {
	return (h.Fch1MHz + float64(h.NChans-1)*h.FoffMHz/2) / 1000
}

// BandwidthMHz returns the total observed bandwidth in MHz.
func (h Header) BandwidthMHz() float64 { return math.Abs(h.FoffMHz) * float64(h.NChans) }

// DurationSec returns the observation length in seconds.
func (h Header) DurationSec() float64 { return float64(h.NSamples) * h.TsampSec }

// Filterbank is one observation: its header plus the time–frequency data in
// sample-major order (Data[t*NChans+ch]), converted to float32 regardless
// of the on-disk NBits.
type Filterbank struct {
	Header
	Data []float32
}

// At returns the power in channel ch of sample t.
func (fb *Filterbank) At(t, ch int) float32 { return fb.Data[t*fb.NChans+ch] }
