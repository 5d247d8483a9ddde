package pipeline

import (
	"runtime"
	"sync"
	"sync/atomic"

	"drapid/internal/dbscan"
	"drapid/internal/dmgrid"
	"drapid/internal/hdfs"
	"drapid/internal/spe"
)

// Prepared is the output of stages 1–2 for a set of observations: the SPE
// data lines and cluster lines ready for HDFS upload, plus the in-memory
// clusters for ground-truth matching.
type Prepared struct {
	DataLines    []string
	ClusterLines []string
	// Keys and Clusters hold the stage-2 output per observation, aligned.
	Keys     []spe.Key
	Clusters [][]*spe.Cluster
	// Results holds the full per-observation clustering outcome (labels and
	// member indices), aligned with Keys — what the sifting stage reads
	// cluster membership from.
	Results []*dbscan.Result
	// NumSPEs is the total event count across observations.
	NumSPEs int
}

// Prepare runs stage 1 (preprocessing into SPE records) and stage 2 (the
// customized DBSCAN) over observations, producing the two CSV inputs the
// distributed job joins. Headers are included, as the real files carry
// them; the driver strips them (Figure 3, stage 1).
//
// Observations are independent, so Prepare clusters and formats them on
// GOMAXPROCS goroutines, each taking the next unclaimed observation and
// writing into that observation's own slots; the results join in input
// order. The output is therefore the same for any worker count, byte for
// byte. Each observation's data lines are substrings of one string (see
// spe.FormatDataLines).
func Prepare(obs []spe.Observation, grid *dmgrid.Grid, params dbscan.Params) *Prepared {
	// first[i] is the index of observation i's first data line.
	first := make([]int, len(obs)+1)
	first[0] = 1 // the header
	keys := make([]spe.Key, len(obs))
	for i, o := range obs {
		first[i+1] = first[i] + len(o.Events)
		keys[i] = o.Key
	}
	p := &Prepared{
		DataLines: make([]string, first[len(obs)]),
		Keys:      keys,
		Clusters:  make([][]*spe.Cluster, len(obs)),
		Results:   make([]*dbscan.Result, len(obs)),
		NumSPEs:   first[len(obs)] - 1,
	}
	p.DataLines[0] = spe.DataHeader
	clusterLines := make([][]string, len(obs))
	prepare := func(i int) {
		o := obs[i]
		res := dbscan.Cluster(o.Events, grid, o.Key, params)
		// Appends in place into exactly this observation's slots; the
		// capacity stops at the next observation's first line.
		spe.FormatDataLines(p.DataLines[first[i]:first[i]:first[i+1]], o.Key, o.Events)
		var line []byte
		for _, c := range res.Clusters {
			line = spe.AppendClusterLine(line[:0], c)
			clusterLines[i] = append(clusterLines[i], string(line))
		}
		p.Clusters[i], p.Results[i] = res.Clusters, res
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(obs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(obs) {
					return
				}
				prepare(i)
			}
		}()
	}
	wg.Wait()
	p.ClusterLines = append(make([]string, 0, p.NumClusters()+1), spe.ClusterHeader)
	for _, ls := range clusterLines {
		p.ClusterLines = append(p.ClusterLines, ls...)
	}
	return p
}

// NumClusters counts clusters across observations.
func (p *Prepared) NumClusters() int {
	n := 0
	for _, cs := range p.Clusters {
		n += len(cs)
	}
	return n
}

// Upload writes the prepared files into HDFS under the given names.
func (p *Prepared) Upload(fs *hdfs.FS, dataName, clusterName string) error {
	if _, err := fs.WriteLines(dataName, p.DataLines); err != nil {
		return err
	}
	_, err := fs.WriteLines(clusterName, p.ClusterLines)
	return err
}
