package harness

import (
	"math"
	"sort"
	"testing"

	datampi "github.com/datampi/datampi-go"
	"github.com/datampi/datampi-go/internal/bdb"
	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/transport"
)

// The transport battery pins the staged profiles against their fluid
// forms on the one transport path: with staging off every prior timing
// stays bit-identical, with stage costs zeroed the staged path
// reproduces the fluid timings exactly, and with real profiles it can
// only add time — never change what the job computes.

// transportRun executes one Text Sort on a fresh rig with the given
// profile override and scenario options, returning the job result, the
// scenario report and the sorted output records.
func transportRun(t *testing.T, fw Framework, prof transport.Profile, nominal float64, opts ...datampi.ScenarioOption) (job.Result, *datampi.Report, []string) {
	t.Helper()
	rc := RigConfig{Scale: 8192, Seed: 1, Transport: prof}
	rig := NewRig(fw, rc)
	in := bdb.GenerateTextFile(rig.FS, "/tp/in", bdb.LDAWiki1W(), rc.Seed+5, nominal)
	spec := bdb.TextSortSpec(rig.FS, in, "/tp/out", rig.TasksPerNode*rig.Cluster.N())
	all := []datampi.ScenarioOption{
		datampi.Tenant("tp", 1, rig.Sched()),
		datampi.Arrive("tp", 0, spec),
	}
	all = append(all, opts...)
	rep, err := datampi.NewScenario(rig.Testbed(), all...).Run()
	if rep == nil {
		t.Fatalf("%s: %v", fw, err)
	}
	res := rep.Jobs[0].Result
	if res.Err != nil {
		t.Fatalf("%s: %v", fw, res.Err)
	}
	out := make([]string, 0, 1024)
	for _, pr := range datampi.ReadTextOutput(rig.FS, "/tp/out") {
		out = append(out, pr.String())
	}
	sort.Strings(out)
	return res, rep, out
}

// zeroStageProfile is the engine default profile's fluid form: every
// staged cost zero but the emit constant, so staging it must not move
// any timing.
func zeroStageProfile(fw Framework) transport.Profile {
	var def transport.Profile
	switch fw {
	case Hadoop:
		def = transport.HadoopProfile()
	case Spark:
		def = transport.SparkProfile()
	case DataMPI:
		def = transport.DataMPIProfile()
	}
	return def.Fluid()
}

// TestTransportDifferential pins the compatibility contract per
// framework: WithTransport(Enabled:false) is bit-identical to not
// mentioning the transport at all, Enabled:true keeps the output
// byte-identical while only adding time, and both runs take the same
// transport path, so they count the same transfers and wire bytes.
func TestTransportDifferential(t *testing.T) {
	for _, fw := range []Framework{Hadoop, Spark, DataMPI} {
		fw := fw
		t.Run(fw.String(), func(t *testing.T) {
			legacy, _, legacyOut := transportRun(t, fw, transport.Profile{}, 2*cluster.GB)
			off, offRep, offOut := transportRun(t, fw, transport.Profile{}, 2*cluster.GB,
				datampi.WithTransport(datampi.TransportConfig{Enabled: false}))
			if off.Start != legacy.Start || off.End != legacy.End || off.Elapsed != legacy.Elapsed {
				t.Errorf("transport-off timings moved: %.12g/%.12g/%.12g vs %.12g/%.12g/%.12g",
					off.Start, off.End, off.Elapsed, legacy.Start, legacy.End, legacy.Elapsed)
			}
			if !sameOutput(offOut, legacyOut) {
				t.Error("transport-off output diverged from legacy")
			}
			on, onRep, onOut := transportRun(t, fw, transport.Profile{}, 2*cluster.GB,
				datampi.WithTransport(datampi.TransportConfig{Enabled: true}))
			if !sameOutput(onOut, legacyOut) {
				t.Error("staged transport changed the job output")
			}
			if on.Elapsed < legacy.Elapsed {
				t.Errorf("staged elapsed %.6g < fluid elapsed %.6g — stage costs removed time",
					on.Elapsed, legacy.Elapsed)
			}
			if onRep.Transport.Transfers == 0 || onRep.Transport.BytesWire <= 0 {
				t.Errorf("staged run counted no transfers: %+v", onRep.Transport)
			}
			if offRep.Transport.Transfers != onRep.Transport.Transfers ||
				offRep.Transport.BytesWire != onRep.Transport.BytesWire {
				t.Errorf("transport-off must count the same transfers as the staged run: off %+v, on %+v",
					offRep.Transport, onRep.Transport)
			}
			t.Logf("transfers=%d wire=%.0f B", onRep.Transport.Transfers, onRep.Transport.BytesWire)
		})
	}
}

// TestTransportZeroStageEquals pins the lower bound of the staged>=fluid
// inequality: with all stage costs zero (and the legacy emit alias in
// place) the staged path reproduces the legacy timings exactly.
func TestTransportZeroStageEquals(t *testing.T) {
	for _, fw := range []Framework{Hadoop, Spark, DataMPI} {
		fw := fw
		t.Run(fw.String(), func(t *testing.T) {
			legacy, _, legacyOut := transportRun(t, fw, transport.Profile{}, 2*cluster.GB)
			zs, _, zsOut := transportRun(t, fw, zeroStageProfile(fw), 2*cluster.GB,
				datampi.WithTransport(datampi.TransportConfig{Enabled: true}))
			if zs.Elapsed != legacy.Elapsed {
				t.Errorf("zero-stage staged elapsed %.12g != legacy %.12g", zs.Elapsed, legacy.Elapsed)
			}
			if !sameOutput(zsOut, legacyOut) {
				t.Error("zero-stage staged run changed the output")
			}
		})
	}
}

// TestPipelinedShuffleOverlap forces pipelined shuffle on Hadoop (whose
// profile defaults to fetch-at-completion) and checks that reducers
// fetched bytes while producing maps were still running — the overlap
// the pipeline exists to buy — without changing the output.
func TestPipelinedShuffleOverlap(t *testing.T) {
	// A 4x straggler node makes one map lag its wave: the slowstarted
	// reducers drain the fast maps' finished streams and then pull the
	// straggler's stream block by block while it is still committing —
	// the fetch-before-finish the pipeline exists for.
	straggle := datampi.At(0, datampi.SlowNode(cluster.DefaultHardware().Nodes-1, 4))
	legacy, _, legacyOut := transportRun(t, Hadoop, transport.Profile{}, 2*cluster.GB, straggle)
	pip, rep, pipOut := transportRun(t, Hadoop, transport.Profile{}, 2*cluster.GB, straggle,
		datampi.WithTransport(datampi.TransportConfig{Enabled: true, Pipeline: datampi.PipelineOn}))
	if !sameOutput(pipOut, legacyOut) {
		t.Error("pipelined shuffle changed the job output")
	}
	if rep.Transport.BytesPipelined <= 0 {
		t.Fatalf("no bytes moved through pipelined streams: %+v", rep.Transport)
	}
	if rep.Transport.BytesOverlapped <= 0 {
		t.Fatalf("no fetch overlapped map execution — the pipeline bought nothing: %+v", rep.Transport)
	}
	t.Logf("pipelined: %.0f MB streamed, overlap %.0f%%, elapsed %.1fs (legacy %.1fs)",
		rep.Transport.BytesPipelined/cluster.MB, 100*rep.Transport.OverlapFraction(),
		pip.Elapsed, legacy.Elapsed)
}

// TestRecordSweepDeterminism pins the experiment byte-for-byte across
// two runs — the CI determinism gate for BENCH_transport.json.
func TestRecordSweepDeterminism(t *testing.T) {
	exp, ok := Lookup("recordsweep")
	if !ok {
		t.Fatal("recordsweep experiment not registered")
	}
	run := func() string {
		rep, err := exp.Run(Options{Quick: true, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return rep.CSV()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("recordsweep not deterministic:\n--- run 1 ---\n%s--- run 2 ---\n%s", a, b)
	}
}

// TestRecordSweepShape asserts the paper-facing claim: over the same
// wire, DataMPI's slowdown stays flat as records shrink while Hadoop's
// grows, and the 2x crossover moves when the profile constants move —
// it is a property of the profile, not of the wire.
func TestRecordSweepShape(t *testing.T) {
	sizes := []float64{64, 256, 1024, 4096, 65536}
	slowdowns := func(prof transport.Profile) []float64 {
		out := make([]float64, len(sizes))
		var wireElapsed float64
		for i, size := range sizes {
			wire, err := RecordSweepRun(transport.Profile{}, false, size)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				wireElapsed = wire.Elapsed
			} else if wire.Elapsed != wireElapsed {
				t.Fatalf("wire baseline moved with record size: %.12g vs %.12g", wire.Elapsed, wireElapsed)
			}
			pt, err := RecordSweepRun(prof, true, size)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = pt.Elapsed / wire.Elapsed
		}
		return out
	}

	hadoop := slowdowns(transport.HadoopProfile())
	dm := slowdowns(transport.DataMPIProfile())
	for i := 1; i < len(sizes); i++ {
		if hadoop[i] > hadoop[i-1]+1e-9 {
			t.Errorf("hadoop slowdown should fall as records grow: %.3f -> %.3f at %g B",
				hadoop[i-1], hadoop[i], sizes[i])
		}
	}
	if hadoop[0] < 2*hadoop[len(hadoop)-1] {
		t.Errorf("hadoop per-record costs should dominate at small records: slowdown %.3f at 64 B vs %.3f at 64 KB",
			hadoop[0], hadoop[len(hadoop)-1])
	}
	for i := range sizes {
		if dm[i] > hadoop[i] {
			t.Errorf("datampi slowdown %.3f exceeds hadoop %.3f at %g B records", dm[i], hadoop[i], sizes[i])
		}
	}
	if spread := dm[0] / dm[len(dm)-1]; spread > 1.25 {
		t.Errorf("datampi overhead should stay flat across the sweep, got %.2fx spread", spread)
	}

	cross := recordSweepCrossover(sizes, hadoop)
	if math.IsNaN(cross) {
		t.Fatal("hadoop should cross the 2x line inside the sweep")
	}
	cheap := transport.HadoopProfile()
	cheap.SerializeCPUPerRecord /= 4
	cheap.DeserializeCPUPerRecord /= 4
	crossCheap := recordSweepCrossover(sizes, slowdowns(cheap))
	if math.IsNaN(crossCheap) || crossCheap >= cross {
		t.Errorf("cheaper per-record constants must move the crossover left: %.0f B -> %.0f B", cross, crossCheap)
	}
}
