package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/datampi/datampi-go/internal/bdb"
	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/harness"
)

// runBench runs the command in-process and decodes its result line.
func runBench(t *testing.T, args ...string) (result, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("perfbench %v exited %d\n%s%s", args, code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out.String())
	}
	return res, out.String()
}

// TestSmokeHeldbackSeed runs every workload briefly on the held-back
// seed, untraced and traced: every named metric must be emitted with its
// unit, and no job may fail or differ from the oracle.
func TestSmokeHeldbackSeed(t *testing.T) {
	seed := strconv.FormatInt(specDoc.HeldbackSeed, 10)
	for _, name := range sortedKeys(workloads) {
		for _, traced := range []string{"0", "1"} {
			t.Run(name+"/trace"+traced, func(t *testing.T) {
				out := filepath.Join(t.TempDir(), "trace.json")
				res, text := runBench(t, "--workload", name, "--seed", seed, "--seconds", "0.01",
					"--trace", traced, "--trace-out", out)
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("error rate %d/%d, want 0 of >0 jobs\n%s", res.Failed, res.Attempted, text)
				}
				defs := endToEnd
				if traced == "1" {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Fatalf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", d.Name, m, ok, d.Unit)
					}
				}
				if traced == "0" {
					for _, d := range endToEnd {
						if res.Metrics[d.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, res.Metrics[d.Name].Value)
						}
					}
					return
				}
				if res.Metrics["bench.profile_samples"].Value <= 0 || res.Metrics["trace.spans"].Value <= 0 {
					t.Errorf("traced run recorded no profile samples or spans:\n%s", text)
				}
				if _, err := os.Stat(out); err != nil {
					t.Errorf("traced run wrote no span file: %v", err)
				}
			})
		}
	}
}

// TestBenchmarkJSONMatches pins BENCHMARK.json's metric lists to the
// metrics the command emits.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, w := range doc.Workloads {
		listed[w.Name] = true
		if _, ok := workloads[w.Name]; !ok || ungated[w.Name] {
			t.Errorf("BENCHMARK.json workload %q is unknown to the command or marked ungated", w.Name)
		}
	}
	for _, name := range sortedKeys(workloads) {
		if !listed[name] && !ungated[name] {
			t.Errorf("workload %q is neither in BENCHMARK.json nor marked ungated", name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the command %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit || got[i].Better != want[i].Better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, command %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	mapped := map[string]bool{}
	for _, l := range specDoc.Layers {
		for _, m := range l.Metrics {
			mapped[m] = true
		}
	}
	for _, d := range perLayer {
		if !mapped[d.Name] {
			t.Errorf("per-layer metric %s is missing from the layer map in spec.json", d.Name)
		}
	}
}

// TestCellsMatchHarness checks that the micro workloads' simulated
// cells at the default seed are the cells `datampi-bench run fig3b` and
// `fig3c` print, so the paper gap is the gap users see.
func TestCellsMatchHarness(t *testing.T) {
	harness.SetWorkers(1)
	for kind, id := range map[string]string{kindSort: "fig3b", kindWordCount: "fig3c"} {
		exp, ok := harness.Lookup(id)
		if !ok {
			t.Fatalf("no experiment %s", id)
		}
		rep, err := exp.Run(harness.Options{Seed: specDoc.DefaultSeed})
		if err != nil {
			t.Fatal(err)
		}
		b := &bench{name: kind, seed: specDoc.DefaultSeed, rec: newRecorder(false), orc: newOracle()}
		p := microPass(b, kind, specDoc.DefaultSeed, false)
		ref := newPassResult()
		paper, err := paperCells(b, kind, p.cells, ref)
		if err != nil || p.failed+ref.failed != 0 {
			t.Fatalf("%s: %v %v %v", kind, err, p.errs, ref.errs)
		}
		for k, v := range paper {
			p.cells[k] = v
		}
		compared := 0
		for _, row := range rep.Rows {
			gb, _ := strconv.ParseFloat(row[0], 64)
			for col, fw := range map[int]harness.Framework{1: harness.Hadoop, 2: harness.Spark, 3: harness.DataMPI} {
				sim, ok := p.cells[cellKey(fw, gb)]
				if !ok {
					if row[col] != "OOM" {
						t.Errorf("%s %s at %g GB: harness cell %q, benchmark did not run it", id, fw, gb, row[col])
					}
					continue
				}
				if got := fmt.Sprintf("%.0f", sim); got != row[col] {
					t.Errorf("%s %s at %g GB: benchmark %s, harness %s", id, fw, gb, got, row[col])
				}
				compared++
			}
		}
		if compared != len(p.cells) {
			t.Errorf("%s: compared %d cells, the benchmark has %d", id, compared, len(p.cells))
		}
		if gap, _, err := paperGap(kind, p.cells); err != nil || gap <= 0 {
			t.Errorf("%s paper gap %v, %v", kind, gap, err)
		}
	}
}

// TestRunsAgree checks that two independent runs of the same seed
// produce the same simulated fingerprint.
func TestRunsAgree(t *testing.T) {
	seed := strconv.FormatInt(specDoc.HeldbackSeed, 10)
	fp := func() string {
		_, text := runBench(t, "--workload", "jobstream", "--seed", seed, "--seconds", "0.01")
		for _, l := range strings.Split(text, "\n") {
			if f, ok := strings.CutPrefix(strings.TrimSpace(l), "simulated fingerprint "); ok {
				return f
			}
		}
		t.Fatalf("no fingerprint in output:\n%s", text)
		return ""
	}
	if a, b := fp(), fp(); a != b {
		t.Fatalf("fingerprints differ across runs: %s vs %s", a, b)
	}
}

// TestOracleCatchesCorruptOutput flips one output byte and expects the
// check to fail.
func TestOracleCatchesCorruptOutput(t *testing.T) {
	rig := harness.NewRig(harness.Hadoop, harness.RigConfig{Scale: microScale, Seed: 3})
	in := bdb.GenerateTextFile(rig.FS, "/bench/text", bdb.LDAWiki1W(), 3, 4*cluster.GB)
	spec := bdb.WordCountSpec(rig.FS, in, "/bench/out", 8)
	if res := rig.Engine.Run(spec); res.Err != nil {
		t.Fatal(res.Err)
	}
	o := newOracle()
	if err := o.check(kindWordCount, spec); err != nil {
		t.Fatalf("clean output rejected: %v", err)
	}
	out := rig.FS.ListPrefix("/bench/out/")
	if len(out) == 0 || len(out[0].Blocks) == 0 || len(out[0].Blocks[0].Data) == 0 {
		t.Fatal("no output to corrupt")
	}
	data := out[0].Blocks[0].Data
	i := bytes.IndexByte(data, '\t') + 1 // first count digit
	data[i] = '0' + (data[i]-'0'+1)%10
	if err := o.check(kindWordCount, spec); err == nil {
		t.Fatal("corrupted output passed the oracle check")
	}
}
