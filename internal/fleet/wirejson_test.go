package fleet

import "drapid/internal/spe"

// The JSON event encoding the binary frames replaced, kept as the
// reference TestCodecSpeedup and BenchmarkFleetCodec/codec=json measure
// the frame codec against.

// shardLine is one NDJSON response line.
type shardLine struct {
	Events []wireEvent `json:"events,omitempty"`
	Done   bool        `json:"done,omitempty"`
	Stats  *wireStats  `json:"stats,omitempty"`
	Error  string      `json:"error,omitempty"`
}

// wireEvent is spe.SPE with stable JSON tags.
type wireEvent struct {
	DM       float64 `json:"dm"`
	SNR      float64 `json:"snr"`
	Time     float64 `json:"time"`
	Sample   int64   `json:"sample"`
	Downfact int     `json:"downfact"`
}

// wireStats mirrors sps.Stats.
type wireStats struct {
	Trials       int                `json:"trials"`
	Samples      int64              `json:"samples"`
	Events       int                `json:"events"`
	Plan         string             `json:"plan,omitempty"`
	StageSeconds map[string]float64 `json:"stage_seconds,omitempty"`
}

func toWire(events []spe.SPE) []wireEvent {
	out := make([]wireEvent, len(events))
	for i, e := range events {
		out[i] = wireEvent{DM: e.DM, SNR: e.SNR, Time: e.Time, Sample: e.Sample, Downfact: e.Downfact}
	}
	return out
}

func fromWire(events []wireEvent) []spe.SPE {
	out := make([]spe.SPE, len(events))
	for i, e := range events {
		out[i] = spe.SPE{DM: e.DM, SNR: e.SNR, Time: e.Time, Sample: e.Sample, Downfact: e.Downfact}
	}
	return out
}
