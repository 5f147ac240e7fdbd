// Command perfbench is the repository benchmark. It runs one named
// workload through the public layer entry points for a fixed time,
// checks every job's output against the job.RunSequential oracle and
// prints the end-to-end metrics (--trace 0) or the per-layer metrics of
// a traced run (--trace 1). The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload sort --seed 1 --seconds 30 --trace 0
//
// Workloads: sort (Figure 3(b) Text Sort), wordcount (Figure 3(c)
// WordCount) and jobstream (a Poisson stream of small jobs through one
// Scenario). Jobs run one after another in one process. BENCHMARK.json
// gates sort and jobstream only: a wordcount pass takes about 6 s on a
// 2-vCPU VM, so a run of gated length holds too few passes for a steady
// median, and the three workloads at a steady run length do not fit the
// time all gated runs may take. wordcount stays runnable and is smoke
// tested, and its paper gap is printed.
package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/datampi/datampi-go/internal/harness"
	"github.com/datampi/datampi-go/internal/job"
)

//go:embed spec.json
var specJSON []byte

// specDoc is spec.json: the default and held-back seeds, the paper
// reference points with their source, and the layer-to-metric map.
var specDoc struct {
	DefaultSeed  int64 `json:"default_seed"`
	HeldbackSeed int64 `json:"heldback_seed"`
	Paper        struct {
		Source string `json:"source"`
		Points map[string]struct {
			Figure string  `json:"figure"`
			GB     float64 `json:"gb"`
			Cells  []struct {
				Engine  string  `json:"engine"`
				Seconds float64 `json:"seconds"`
			} `json:"cells"`
		} `json:"points"`
	} `json:"paper"`
	Layers []struct {
		Layer   string   `json:"layer"`
		Metrics []string `json:"metrics"`
		Moves   string   `json:"moves"`
	} `json:"layers"`
}

func init() {
	if err := json.Unmarshal(specJSON, &specDoc); err != nil {
		panic(err)
	}
}

// metricDef is one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics of an untraced run; perLayer those of a
// traced run. Units: s is host seconds, sim_s simulated seconds.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"run_s", "s", "lower"},
	{"alloc_MB", "MB", "lower"},
	{"peak_rss_MB", "MB", "lower"},
}

var perLayer = []metricDef{
	{"harness.rig_s", "s", "lower"},
	{"bdb.gen_s", "s", "lower"},
	{"bdb.gen_MB", "MB", "lower"},
	{"dfs.load_s", "s", "lower"},
	{"dfs.blocks", "count", "lower"},
	{"bdb.cpu_share", "frac", "lower"},
	{"job.seq_s", "s", "lower"},
	{"job.records", "count", "lower"},
	{"kv.collect_s", "s", "lower"},
	{"kv.sort_s", "s", "lower"},
	{"kv.merge_s", "s", "lower"},
	{"kv.pairs_sorted", "count", "lower"},
	{"kv.spills", "count", "lower"},
	{"kv.cpu_share", "frac", "lower"},
	{"mr.run_s", "s", "lower"},
	{"rdd.run_s", "s", "lower"},
	{"core.run_s", "s", "lower"},
	{"mr.alloc_MB", "MB", "lower"},
	{"rdd.alloc_MB", "MB", "lower"},
	{"core.alloc_MB", "MB", "lower"},
	{"mr.shuffle_MB", "MB", "lower"},
	{"rdd.shuffle_MB", "MB", "lower"},
	{"core.shuffle_MB", "MB", "lower"},
	{"mr.cpu_share", "frac", "lower"},
	{"rdd.cpu_share", "frac", "lower"},
	{"core.cpu_share", "frac", "lower"},
	{"mr.sim_s", "sim_s", "lower"},
	{"rdd.sim_s", "sim_s", "lower"},
	{"core.sim_s", "sim_s", "lower"},
	{"mr.net_path_pct", "%", "lower"},
	{"rdd.net_path_pct", "%", "lower"},
	{"core.net_path_pct", "%", "lower"},
	{"paper.gap_pct", "%", "lower"},
	{"sched.run_s", "s", "lower"},
	{"sched.us_per_task", "us", "lower"},
	{"sched.tasks", "count", "lower"},
	{"sched.backups", "count", "lower"},
	{"sched.kills", "count", "lower"},
	{"sched.response_p50_s", "sim_s", "lower"},
	{"sched.response_p95_s", "sim_s", "lower"},
	{"sched.responses", "count", "higher"},
	{"sched.wait_s", "sim_s", "lower"},
	{"sched.cpu_share", "frac", "lower"},
	{"sim.makespan_s", "sim_s", "lower"},
	{"sim.cpu_share", "frac", "lower"},
	{"transport.transfers", "count", "lower"},
	{"transport.serialized_MB", "MB", "lower"},
	{"transport.zero_copy_MB", "MB", "higher"},
	{"transport.wire_MB", "MB", "lower"},
	{"transport.overlap_frac", "frac", "higher"},
	{"transport.cpu_share", "frac", "lower"},
	{"runtime.gc_cpu_frac", "frac", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.cpu_share", "frac", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.spans", "count", "lower"},
	{"trace.cpu_share", "frac", "lower"},
	{"bench.passes", "count", "higher"},
	{"bench.profile_samples", "count", "higher"},
}

// cpuModules are the modules whose CPU share the traced run reports.
var cpuModules = []string{"bdb", "kv", "mr", "rdd", "core", "sched", "sim", "transport", "runtime", "trace"}

// workload runs one pass: set up, run, check. BENCHMARK.json records
// why each workload is in the benchmark.
type workload func(b *bench, seed int64, traced bool) *passResult

var workloads = map[string]workload{
	kindSort:      func(b *bench, seed int64, traced bool) *passResult { return microPass(b, kindSort, seed, traced) },
	kindWordCount: func(b *bench, seed int64, traced bool) *passResult { return microPass(b, kindWordCount, seed, traced) },
	"jobstream":   jobstreamPass,
}

// ungated are the workloads BENCHMARK.json leaves out.
var ungated = map[string]bool{kindWordCount: true}

// passResult is one pass of a workload.
type passResult struct {
	host   map[string]float64 // host measurements (seconds, MB)
	exact  map[string]float64 // deterministic values: simulated results and work counts
	traced map[string]float64 // deterministic values only a traced pass computes
	facts  []string           // every simulated output, for the determinism check
	cells  map[string]float64 // simulated seconds per "<engine>/<GB>" cell
	inputs map[[32]byte]job.Spec

	attempted, failed int
	errs              []string
}

func newPassResult() *passResult {
	return &passResult{host: map[string]float64{}, exact: map[string]float64{},
		traced: map[string]float64{}, cells: map[string]float64{}, inputs: map[[32]byte]job.Spec{}}
}

// setup books host seconds of a set-up layer call.
func (p *passResult) setup(name string, d float64) {
	p.host[name] += d
	p.host["setup_s"] += d
}

// run books a measured layer call: its host seconds and the runtime
// counters it moved.
func (p *passResult) run(layer string, d float64, rt rtCounters) {
	p.host[layer+".run_s"] += d
	p.host[layer+".alloc_MB"] += rt.allocBytes / mib
	p.host["run_s"] += d
	p.host["alloc_MB"] += rt.allocBytes / mib
	p.host["runtime.gc_cycles"] += rt.gcCycles
	p.host["runtime.gc_cpu_s"] += rt.gcCPU
	p.host["runtime.cpu_s"] += rt.totalCPU
}

func (p *passResult) fact(key string, vs ...float64) {
	var b strings.Builder
	b.WriteString(key)
	for _, v := range vs {
		b.WriteByte(' ')
		b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	}
	p.facts = append(p.facts, b.String())
}

func (p *passResult) fail(err error) {
	p.failed++
	p.errs = append(p.errs, err.Error())
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// bench is one benchmark invocation.
type bench struct {
	name string
	seed int64
	rec  *recorder
	orc  *oracle
}

// check runs the oracle comparison outside the timed calls.
func (b *bench) check(kind string, spec job.Spec, parent int) error {
	var err error
	b.rec.call(parent, "oracle.check", "bench", "check", func() { err = b.orc.check(kind, spec) })
	return err
}

// outcome is everything a run measured.
type outcome struct {
	passes, tracedPasses []*passResult
	attempted, failed    int
	errs                 []string
	fingerprint          string
	metrics              map[string]float64
	cpu                  *cpuSplit
}

func (o *outcome) add(p *passResult, ref string) {
	o.attempted += p.attempted
	o.failed += p.failed
	o.errs = append(o.errs, p.errs...)
	if fp := fingerprint(p.facts); fp != ref {
		// Any drift of a simulated output between passes is a failure:
		// host time alone would let a nondeterminism bug through.
		o.failed += p.attempted - p.failed
		o.errs = append(o.errs, fmt.Sprintf("simulated outputs drifted between passes (%s vs %s)", fp[:12], ref[:12]))
	}
	p.facts = nil // kept passes must not grow the heap with the run's length
}

// measure runs one warm-up pass (whose outputs seed the oracle cache and
// the determinism reference), then passes until the run time is spent.
// A traced run alternates untraced passes with traced ones (spans kept,
// program tracer attached, CPU profile on), so machine drift hits both
// alike and their difference is the tracing overhead.
func (b *bench) measure(w workload, seconds float64, traced bool) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}, cpu: newCPUSplit()}
	warm := w(b, b.seed, false)
	o.fingerprint = fingerprint(warm.facts)
	o.add(warm, o.fingerprint)

	pass := func(tracedPass bool) *passResult {
		// Every pass starts from a collected heap, so the garbage the
		// previous pass left does not fall due inside this pass's timed
		// calls.
		runtime.GC()
		p := w(b, b.seed, tracedPass)
		p.inputs = nil // holds the pass's rigs; only the warm-up's are replayed
		o.add(p, o.fingerprint)
		return p
	}
	start := time.Now()
	for len(o.passes) == 0 || time.Since(start).Seconds() < seconds {
		o.passes = append(o.passes, pass(false))
		if !traced {
			continue
		}
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		b.rec.keep = true
		o.tracedPasses = append(o.tracedPasses, pass(true))
		b.rec.keep = false
		pprof.StopCPUProfile()
		if err := o.cpu.add(prof.Bytes(), "run"); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}

	hostMedian := func(ps []*passResult, name string) float64 {
		xs := make([]float64, 0, len(ps))
		for _, p := range ps {
			xs = append(xs, p.host[name])
		}
		return median(xs)
	}
	m := o.metrics
	for _, name := range []string{"setup_s", "run_s", "alloc_MB"} {
		m[name] = hostMedian(o.passes, name)
	}
	m["peak_rss_MB"] = peakRSSMB()
	if !traced {
		return o, nil
	}

	tp := o.tracedPasses
	for _, name := range []string{"harness.rig_s", "bdb.gen_s", "dfs.load_s",
		"mr.run_s", "rdd.run_s", "core.run_s", "mr.alloc_MB", "rdd.alloc_MB", "core.alloc_MB",
		"sched.run_s", "runtime.gc_cycles"} {
		m[name] = hostMedian(tp, name)
	}
	var gcFrac []float64
	for _, p := range tp {
		if p.host["runtime.cpu_s"] > 0 {
			gcFrac = append(gcFrac, p.host["runtime.gc_cpu_s"]/p.host["runtime.cpu_s"])
		}
	}
	m["runtime.gc_cpu_frac"] = median(gcFrac)
	for k, v := range warm.exact {
		m[k] = v
	}
	for k, v := range tp[0].traced {
		m[k] = v
	}
	for _, p := range tp[1:] {
		if fmt.Sprint(p.traced) != fmt.Sprint(tp[0].traced) {
			o.failed += p.attempted
			o.errs = append(o.errs, "trace-derived simulated values drifted between traced passes")
		}
	}
	if n := m["sched.waits"]; n > 0 {
		m["sched.wait_s"] = m["sched.wait_total_s"] / n
	}
	delete(m, "sched.waits")
	delete(m, "sched.wait_total_s")
	if m["sched.tasks"] > 0 {
		m["sched.us_per_task"] = 1e6 * m["sched.run_s"] / m["sched.tasks"]
	}
	if base := hostMedian(o.passes, "run_s"); base > 0 {
		m["trace.overhead_pct"] = 100 * (hostMedian(tp, "run_s")/base - 1)
	}
	for _, mod := range cpuModules {
		m[mod+".cpu_share"] = o.cpu.share(mod)
	}
	m["bench.profile_samples"] = float64(o.cpu.samples)
	m["bench.passes"] = float64(len(tp))

	// The job and kv layers, replayed on each distinct input outside the
	// engines.
	var r replay
	b.rec.keep = true
	replayID := b.rec.begin(0, "replay", "bench", "replay")
	for _, k := range sortedInputKeys(warm.inputs) {
		one, err := replayJob(b.rec, replayID, warm.inputs[k])
		if err != nil {
			return nil, err
		}
		r.add(one)
	}
	b.rec.end(replayID)
	b.rec.keep = false
	m["job.seq_s"], m["job.records"] = r.seqS, float64(r.records)
	m["kv.collect_s"], m["kv.sort_s"], m["kv.merge_s"] = r.collectS, r.sortS, r.mergeS
	m["kv.pairs_sorted"], m["kv.spills"] = float64(r.pairsSorted), float64(r.spills)
	m["trace.spans"] = float64(len(b.rec.spans))
	return o, nil
}

func sortedInputKeys(m map[[32]byte]job.Spec) [][32]byte {
	keys := make([][32]byte, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i][:], keys[j][:]) < 0 })
	return keys
}

// paperGap is the mean |simulated - paper| / paper over the workload's
// paper points, in percent; ok is false when the workload has none.
func paperGap(kind string, cells map[string]float64) (gap float64, ok bool, err error) {
	pts, ok := specDoc.Paper.Points[kind]
	if !ok {
		return 0, false, nil
	}
	for _, c := range pts.Cells {
		fw, err := framework(c.Engine)
		if err != nil {
			return 0, false, err
		}
		sim, have := cells[cellKey(fw, pts.GB)]
		if !have {
			return 0, false, fmt.Errorf("no simulated cell for %s at %g GB", c.Engine, pts.GB)
		}
		gap += math.Abs(sim-c.Seconds) / c.Seconds
	}
	return 100 * gap / float64(len(pts.Cells)), true, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: sort, wordcount or jobstream")
	seed := fl.Int64("seed", specDoc.DefaultSeed, "workload seed")
	seconds := fl.Float64("seconds", 10, "measured seconds")
	traceFlag := fl.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	traceOut := fl.String("trace-out", "", "traced run's span/metric JSON (default .bench_build/perfbench-<workload>-<seed>.json)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n",
			strings.Join(sortedKeys(workloads), ", "))
		return 2
	}
	traced := *traceFlag == 1
	harness.SetWorkers(1)
	b := &bench{name: *name, seed: *seed, rec: newRecorder(false), orc: newOracle()}
	o, err := b.measure(w, *seconds, traced)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	gap, hasGap, err := b.paperGap(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: paper gap: %v\n", err)
		return 1
	}

	fmt.Fprintf(stdout, "perfbench %s seed=%d\n", *name, *seed)
	fmt.Fprintf(stdout, "  passes: %d measured (+1 warm-up)", len(o.passes))
	if traced {
		fmt.Fprintf(stdout, ", %d traced", len(o.tracedPasses))
	}
	fmt.Fprintf(stdout, "; values are medians over passes\n")
	for _, d := range endToEnd {
		fmt.Fprintf(stdout, "  %-14s %12.4f %s", d.Name, o.metrics[d.Name], d.Unit)
		if d.Name != "peak_rss_MB" {
			fmt.Fprintf(stdout, "  (passes:")
			for _, p := range o.passes {
				fmt.Fprintf(stdout, " %.4g", p.host[d.Name])
			}
			fmt.Fprintf(stdout, ")")
		}
		fmt.Fprintln(stdout)
	}
	if hasGap {
		fmt.Fprintf(stdout, "  %-14s %12.4f %% (simulated, seed %d, vs %s)\n", "paper_gap_pct", gap, specDoc.DefaultSeed, specDoc.Paper.Source)
	}
	fmt.Fprintf(stdout, "  %-14s %12.4f (%d of %d jobs failed or differ from the oracle)\n",
		"error_rate", float64(o.failed)/float64(max(o.attempted, 1)), o.failed, o.attempted)
	fmt.Fprintf(stdout, "  simulated fingerprint %s\n", o.fingerprint)
	for i, e := range o.errs {
		if i == 10 {
			fmt.Fprintf(stdout, "  ... %d more errors\n", len(o.errs)-i)
			break
		}
		fmt.Fprintf(stdout, "  error: %s\n", e)
	}

	defs := endToEnd
	if traced {
		o.metrics["paper.gap_pct"] = gap
		defs = perLayer
		for _, d := range perLayer {
			fmt.Fprintf(stdout, "  %-24s %14.6g %s\n", d.Name, o.metrics[d.Name], d.Unit)
		}
		path := *traceOut
		if path == "" {
			path = filepath.Join(".bench_build", fmt.Sprintf("perfbench-%s-%d.json", *name, *seed))
		}
		if err := writeTrace(path, b, o); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "  spans and per-layer metrics written to %s\n", path)
	}
	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{o.metrics[d.Name], d.Unit}
	}
	line, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	if o.failed > 0 {
		return 1
	}
	return 0
}

// paperGap computes the workload's gap to the paper at the default seed;
// the reference runs it needs count as attempted jobs of the run.
func (b *bench) paperGap(o *outcome) (float64, bool, error) {
	if _, ok := specDoc.Paper.Points[b.name]; !ok {
		return 0, false, nil
	}
	ref := newPassResult()
	cells, err := paperCells(b, b.name, o.passes[0].cells, ref)
	o.attempted += ref.attempted
	o.failed += ref.failed
	o.errs = append(o.errs, ref.errs...)
	if err != nil || ref.failed > 0 {
		return 0, false, err
	}
	return paperGap(b.name, cells)
}

// writeTrace writes the traced run's spans and metrics as JSON.
func writeTrace(path string, b *bench, o *outcome) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	modules := map[string]float64{}
	for mod := range o.cpu.nanos {
		modules[mod] = o.cpu.share(mod)
	}
	doc := struct {
		Workload    string             `json:"workload"`
		Seed        int64              `json:"seed"`
		Fingerprint string             `json:"fingerprint"`
		Metrics     map[string]float64 `json:"metrics"`
		CPUModules  map[string]float64 `json:"cpu_modules"`
		Spans       []hostSpan         `json:"spans"`
	}{b.name, b.seed, o.fingerprint, o.metrics, modules, b.rec.spans}
	buf, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// fingerprint hashes a pass's simulated outputs.
func fingerprint(facts []string) string {
	h := sha256.Sum256([]byte(strings.Join(facts, "\n")))
	return hex.EncodeToString(h[:])
}
