package datampi_test

import (
	"compress/gzip"
	"errors"
	"fmt"
	"testing"

	datampi "github.com/datampi/datampi-go"
)

// TestUndecodableInputFailsCleanly runs a job whose input its declared
// format cannot decode (plain text read as gzipped sequence records) on
// every engine, twice on the same engine: each run must return an error
// wrapping the decode error, not a simulation deadlock, and leave every
// node's memory account where it found it.
func TestUndecodableInputFailsCleanly(t *testing.T) {
	for _, name := range []string{"Hadoop", "Spark", "DataMPI"} {
		t.Run(name, func(t *testing.T) {
			tb := datampi.NewTestbed(datampi.TestbedConfig{Scale: 1024, Seed: 5})
			in := tb.GenerateText("/in", 1*datampi.GB, 1)
			eng := faultEngines()[name](tb)
			before := make([]float64, tb.Cluster.N())
			for i := range before {
				before[i] = tb.Cluster.Node(i).Mem.Used()
			}
			for run := 0; run < 2; run++ {
				spec := datampi.WordCount(tb.FS, in, fmt.Sprintf("/out%d", run), 8)
				spec.InputFormat = datampi.SeqGzip
				res := eng.Run(spec)
				if !errors.Is(res.Err, gzip.ErrHeader) {
					t.Fatalf("run %d: error %v, want one wrapping %v", run, res.Err, gzip.ErrHeader)
				}
				for i, b := range before {
					if used := tb.Cluster.Node(i).Mem.Used(); used != b {
						t.Fatalf("run %d: node %d holds %.0f B, %.0f B before the run", run, i, used, b)
					}
				}
			}
		})
	}
}
