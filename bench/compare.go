package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkFile is the part of /BENCHMARK.json the comparison needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints, per workload × end-to-end metric, both medians, the
// relative change of b against a (positive = worse) and the bound from
// BENCHMARK.json. A metric is unresolved when either side's inter-quartile
// spread exceeds the bound: the runs cannot tell a change of that size
// from noise. It reports whether any metric worsened past its bound.
func compareFiles(w io.Writer, aPath, bPath, benchPath string) (worse bool, err error) {
	var a, b results
	var bench benchmarkFile
	for _, f := range []struct {
		path string
		v    any
	}{{aPath, &a}, {bPath, &b}, {benchPath, &bench}} {
		if err := readJSON(f.path, f.v); err != nil {
			return false, err
		}
	}
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		if _, ok := b.Workloads[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return false, fmt.Errorf("%s and %s share no workload", aPath, bPath)
	}
	fmt.Fprintf(w, "%-16s %-18s %12s %12s %8s %6s  %s\n", "workload", "metric", "a", "b", "change", "bound", "")
	for _, name := range names {
		for _, m := range bench.EndToEnd {
			sa, oka := a.Workloads[name].EndToEnd[m.Name]
			sb, okb := b.Workloads[name].EndToEnd[m.Name]
			if !oka || !okb {
				return false, fmt.Errorf("%s: %s is missing from one side (run with -trace 0 or 2)", name, m.Name)
			}
			change := (sb.Value - sa.Value) / sa.Value
			if m.Better == "higher" {
				change = -change
			}
			verdict := "ok"
			if change > m.Bound {
				verdict = "WORSE"
				worse = true
			}
			if spread := max(sa.spread(), sb.spread()); spread > m.Bound {
				verdict += fmt.Sprintf(" unresolved (spread %.1f%%)", 100*spread)
			}
			fmt.Fprintf(w, "%-16s %-18s %12.6g %12.6g %+7.1f%% %5.0f%%  %s\n",
				name, m.Name, sa.Value, sb.Value, 100*change, 100*m.Bound, verdict)
		}
	}
	return worse, nil
}
