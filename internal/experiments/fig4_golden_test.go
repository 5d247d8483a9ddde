package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestFig4Golden pins the Figure 4 reproduction end to end on a reduced
// configuration: the generated test set (stages 1–2), the simulated
// D-RAPID and multithreaded sweeps and the rendered table must stay byte
// for byte what testdata/fig4.golden holds.
func TestFig4Golden(t *testing.T) {
	res, err := RunFig4(Fig4Config{
		NumObservations:   12,
		ExecutorCounts:    []int{1, 5},
		ThreadCounts:      []int{1, 5},
		Seed:              1,
		PartitionsPerCore: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("data_bytes %d clusters %d executor_mem_mb %d\n%s", res.DataBytes, res.NumClusters, res.ExecutorMemMB, Fig4Markdown(res))
	for _, p := range append(res.DRAPID, res.RAPIDMT...) {
		got += fmt.Sprintf("n %d records %d seconds %.9g\n", p.N, p.Records, p.Seconds)
	}
	path := filepath.Join("testdata", "fig4.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("Figure 4 drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
