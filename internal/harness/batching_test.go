package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"github.com/datampi/datampi-go/internal/bdb"
	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/kv"
	"github.com/datampi/datampi-go/internal/sched"
)

// The batching battery pins block-granularity record batching to the
// per-record allocation path it replaced, whose results are recorded in
// testdata/unbatched_reference.json: the arena only changes where record
// bytes live in host memory, never what the engines compute or when
// simulated events fire. With speculation off, outputs must hash to the
// recorded digest and timings must equal the recorded ones exactly. The
// speculation-on straggler scenario (backup attempts racing, kills
// mid-flight) is held to the differential battery's 1e-6 relative
// tolerance. The arena contract itself is property-tested in
// internal/kv (TestArenaCopyProperty).

// unbatchedReference returns the recorded per-record-path result of one
// scenario.
func unbatchedReference(t *testing.T, scenario string) (timings []float64, outputSHA256 string) {
	t.Helper()
	var doc struct {
		Scenarios map[string]struct {
			Timings      []float64 `json:"timings"`
			OutputSHA256 string    `json:"output_sha256"`
		} `json:"scenarios"`
	}
	readTestdata(t, "unbatched_reference.json", &doc)
	ref, ok := doc.Scenarios[scenario]
	if !ok {
		t.Fatalf("%s: no per-record reference recorded", scenario)
	}
	return ref.Timings, ref.OutputSHA256
}

// TestBatchingDifferentialOutputs runs WordCount alone on each engine,
// speculation off: the output digest and the timings must match the
// per-record path's exactly.
func TestBatchingDifferentialOutputs(t *testing.T) {
	for _, fw := range []Framework{Hadoop, Spark, DataMPI} {
		fw := fw
		t.Run(fw.String(), func(t *testing.T) {
			rc := RigConfig{Scale: 8192, Seed: 1}
			rig := NewRig(fw, rc)
			in := bdb.GenerateTextFile(rig.FS, "/batch/in", bdb.LDAWiki1W(), rc.Seed+5, 2*cluster.GB)
			spec := bdb.WordCountSpec(rig.FS, in, "/batch/out", rig.TasksPerNode*rig.Cluster.N())
			q := sched.NewQueue(rig.Cluster.Eng, rig.Cluster.N(), sched.FIFO)
			q.Submit(rig.Sched(), spec)
			res := q.Run()[0]
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			sum := sha256.Sum256(kv.EncodeAll(job.ReadTextOutput(rig.FS, spec.Output)))
			wantTimings, wantSHA := unbatchedReference(t, "outputs/"+fw.String())
			if got := hex.EncodeToString(sum[:]); got != wantSHA {
				t.Fatalf("output digest %s, per-record path gave %s", got, wantSHA)
			}
			got := []float64{res.Start, res.End, res.Elapsed}
			for i := range got {
				if got[i] != wantTimings[i] {
					t.Fatalf("timings %v, per-record path gave %v", got, wantTimings)
				}
			}
		})
	}
}

// TestBatchingDifferentialSpeculation runs the cancel-heavy straggler
// scenario (slow node, speculation on) and holds the timings and
// discrete backup decisions to the per-record path's within the
// differential tolerance.
func TestBatchingDifferentialSpeculation(t *testing.T) {
	for _, fw := range []Framework{Hadoop, DataMPI} {
		fw := fw
		t.Run(fw.String(), func(t *testing.T) {
			res, st, err := runStraggler(fw, RigConfig{Scale: 8192, Seed: 1}, 2*cluster.GB, true, true)
			if err != nil {
				t.Fatal(err)
			}
			scenario := "speculation/" + fw.String()
			want, _ := unbatchedReference(t, scenario)
			assertClose(t, scenario, []float64{res.Start, res.End, res.Elapsed,
				float64(st.Backups), float64(st.BackupWins)}, want)
		})
	}
}
