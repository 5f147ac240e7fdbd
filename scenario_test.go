package datampi_test

import (
	"strings"
	"testing"

	datampi "github.com/datampi/datampi-go"
)

// scenarioRig builds a small testbed with one staged input and returns a
// job builder producing WordCount jobs with distinct output paths.
func scenarioRig(t *testing.T) (*datampi.Testbed, datampi.ConcurrentEngine, func(prefix string) func(i int) datampi.Job) {
	t.Helper()
	tb := datampi.NewTestbed(datampi.TestbedConfig{Scale: 1024, Seed: 3})
	in := tb.GenerateText("/in", 256*datampi.MB, 1)
	eng := datampi.New(tb.FS, datampi.DefaultConfig())
	mk := func(prefix string) func(i int) datampi.Job {
		return func(i int) datampi.Job {
			return datampi.WordCount(tb.FS, in, prefix+string(rune('a'+i)), 8)
		}
	}
	return tb, eng, mk
}

// TestPoissonArrivalsDeterministic: the same seed must reproduce the same
// trace and the same report, bit for bit; a different seed must produce a
// different trace.
func TestPoissonArrivalsDeterministic(t *testing.T) {
	run := func(seed int64) *datampi.Report {
		tb, eng, mk := scenarioRig(t)
		rep, err := datampi.NewScenario(tb,
			datampi.WithPolicy(datampi.Fair),
			datampi.Tenant("a", 2, eng),
			datampi.Tenant("b", 1, eng),
			datampi.PoissonArrivals("a", 0.05, 3, seed, mk("/out/a-")),
			datampi.PoissonArrivals("b", 0.05, 3, seed+100, mk("/out/b-")),
		).Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	r1, r2 := run(42), run(42)
	if r1.Render() != r2.Render() {
		t.Fatalf("same seed produced different reports:\n%s\nvs\n%s", r1.Render(), r2.Render())
	}
	if len(r1.Jobs) != len(r2.Jobs) {
		t.Fatalf("job counts differ: %d vs %d", len(r1.Jobs), len(r2.Jobs))
	}
	for i := range r1.Jobs {
		if r1.Jobs[i].Arrival != r2.Jobs[i].Arrival || r1.Jobs[i].Response != r2.Jobs[i].Response {
			t.Fatalf("job %d: arrival/response differ across identical runs", i)
		}
	}
	r3 := run(43)
	same := true
	for i := range r1.Jobs {
		if r1.Jobs[i].Arrival != r3.Jobs[i].Arrival {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical arrival traces")
	}
}

// TestScenarioReportShape checks the structured report: per-tenant
// aggregation, slot shares summing to one, responses covering queueing
// delay, and the timeline carrying scheduled events.
func TestScenarioReportShape(t *testing.T) {
	tb, eng, mk := scenarioRig(t)
	rep, err := datampi.NewScenario(tb,
		datampi.WithPolicy(datampi.Fair),
		datampi.Tenant("heavy", 3, eng),
		datampi.Tenant("light", 1, eng),
		datampi.Arrive("heavy", 0, mk("/out/h-")(0)),
		datampi.Arrive("heavy", 5, mk("/out/h-")(1)),
		datampi.Arrive("light", 10, mk("/out/l-")(0)),
		datampi.At(15, datampi.SlowNode(7, 2)),
		datampi.At(60, datampi.RestoreNode(7)),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Jobs) != 3 || len(rep.Tenants) != 2 {
		t.Fatalf("report has %d jobs / %d tenants, want 3/2", len(rep.Jobs), len(rep.Tenants))
	}
	if rep.Tenants[0].Name != "heavy" || rep.Tenants[0].Jobs != 2 || rep.Tenants[1].Jobs != 1 {
		t.Fatalf("tenant aggregation wrong: %+v", rep.Tenants)
	}
	share := rep.Tenants[0].SlotShare + rep.Tenants[1].SlotShare
	if share < 0.999 || share > 1.001 {
		t.Fatalf("slot shares sum to %v, want 1", share)
	}
	for _, jr := range rep.Jobs {
		if jr.Response <= 0 {
			t.Fatalf("job %s: response %v, want positive", jr.Result.Job, jr.Response)
		}
		if jr.Result.End-jr.Result.Start > jr.Response+1e-9 {
			t.Fatalf("job %s: response %v shorter than its own elapsed %v", jr.Result.Job, jr.Response, jr.Result.Elapsed)
		}
	}
	if len(rep.Timeline) != 2 || rep.Timeline[0].T != 15 || rep.Timeline[1].T != 60 {
		t.Fatalf("timeline wrong: %+v", rep.Timeline)
	}
	if rep.Tenants[0].Response.P95 < rep.Tenants[0].Response.P50 {
		t.Fatalf("p95 < p50: %+v", rep.Tenants[0].Response)
	}
}

// TestScenarioNodeDownRecovers fails a node mid-job through the public
// API: Hadoop's restartable tasks must be retried on healthy nodes and
// the job must still finish correctly.
func TestScenarioNodeDownRecovers(t *testing.T) {
	tb := datampi.NewTestbed(datampi.TestbedConfig{Scale: 1024, Seed: 3})
	in := tb.GenerateText("/in", 512*datampi.MB, 1)
	eng := datampi.NewHadoop(tb.FS)
	rep, err := datampi.NewScenario(tb,
		datampi.Tenant("jobs", 1, eng),
		datampi.Arrive("jobs", 0, datampi.WordCount(tb.FS, in, "/out", 8)),
		datampi.At(20, datampi.NodeDown(7)),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs[0].Result.Err != nil {
		t.Fatal(rep.Jobs[0].Result.Err)
	}
	if got := rep.Jobs[0].Result.Counters["maps"]; got != int64(len(in.Blocks)) {
		t.Fatalf("maps = %d, want %d", got, len(in.Blocks))
	}
	if rep.Tracker.Retries == 0 && rep.Tracker.Kills == 0 {
		t.Log("note: no attempt was caught on the failed node at t=20")
	}
	if tb.Cluster.Alive(7) {
		t.Fatal("cluster should record node 7 as down")
	}
	out := datampi.ReadTextOutput(tb.FS, "/out")
	if len(out) == 0 {
		t.Fatal("no output after node failure")
	}
}

// TestScenarioSlotEventMissNoted: a Grow/Shrink event firing before any
// engine created its pool must be flagged in the report, not silently
// claimed by the timeline.
func TestScenarioSlotEventMissNoted(t *testing.T) {
	tb, eng, mk := scenarioRig(t)
	rep, err := datampi.NewScenario(tb,
		datampi.Tenant("a", 1, eng),
		datampi.Arrive("a", 0, mk("/out/m-")(0)),
		datampi.At(0, datampi.GrowSlots("no-such-pool", 8)),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Notes) != 1 || !strings.Contains(rep.Notes[0], "no-such-pool") {
		t.Fatalf("missed slot event not noted: %v", rep.Notes)
	}
	if !strings.Contains(rep.Render(), "had no effect") {
		t.Fatalf("render should surface the miss:\n%s", rep.Render())
	}
}

// TestScenarioValidation: configuration errors surface from Run, not as
// panics mid-simulation.
func TestScenarioValidation(t *testing.T) {
	tb, eng, mk := scenarioRig(t)
	if _, err := datampi.NewScenario(tb,
		datampi.Tenant("a", 1, eng),
		datampi.Arrive("ghost", 0, mk("/out/x-")(0)),
	).Run(); err == nil || !strings.Contains(err.Error(), "undeclared tenant") {
		t.Fatalf("undeclared tenant not caught: %v", err)
	}
	if _, err := datampi.NewScenario(tb,
		datampi.Tenant("a", 1, eng),
		datampi.Tenant("a", 1, eng),
	).Run(); err == nil || !strings.Contains(err.Error(), "declared twice") {
		t.Fatalf("duplicate tenant not caught: %v", err)
	}
	if _, err := datampi.NewScenario(tb, datampi.Tenant("a", 1, eng)).Run(); err == nil {
		t.Fatal("empty scenario not caught")
	}
	if _, err := datampi.NewScenario(tb,
		datampi.Tenant("a", 1, eng),
		datampi.Arrive("a", 0, mk("/out/z-")(0)),
		datampi.At(120, datampi.SlowNode(8, 4)), // node 8 on an 8-node testbed
	).Run(); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range event node not caught at Run: %v", err)
	}
	if _, err := datampi.NewScenario(tb,
		datampi.Tenant("a", 1, eng),
		datampi.Arrive("a", 0, mk("/out/z2-")(0)),
		datampi.At(120, datampi.SlowNode(0, -1)),
	).Run(); err == nil || !strings.Contains(err.Error(), "factor") {
		t.Fatalf("non-positive slow factor not caught at Run: %v", err)
	}
	otherTb := datampi.NewTestbed(datampi.TestbedConfig{Scale: 1024, Seed: 9})
	otherEng := datampi.New(otherTb.FS, datampi.DefaultConfig())
	if _, err := datampi.NewScenario(tb,
		datampi.Tenant("a", 1, otherEng),
		datampi.Arrive("a", 0, mk("/out/z3-")(0)),
	).Run(); err == nil || !strings.Contains(err.Error(), "different testbed") {
		t.Fatalf("wrong-testbed engine not caught at Run: %v", err)
	}
}
