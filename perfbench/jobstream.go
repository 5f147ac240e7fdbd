package main

import (
	"fmt"
	"math/rand"

	datampi "github.com/datampi/datampi-go"
	"github.com/datampi/datampi-go/internal/bdb"
	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/harness"
	"github.com/datampi/datampi-go/internal/job"
)

// The job stream is many small jobs through one Scenario: open-loop (in
// simulated time) Poisson arrivals from a Hadoop, a Spark and a DataMPI
// tenant, Fair policy, speculation on and the staged transport enabled.
// The data-scale divisor leaves only kilobytes of real data per job, so
// the scheduler, the simulation kernel, the transport and the Go runtime
// carry the cost, and the kv data plane almost none.

const (
	streamScale         = 1 << 20 // nominal bytes per stored byte
	streamJobsPerTenant = 100
	streamRate          = 0.015 // arrivals per simulated second, per tenant
	streamReducers      = 16
)

// streamSizesGB are the nominal input sizes a WordCount or Grep job
// draws from: one to eight 256 MB blocks, so map waves stay within the 32
// slots. Text Sort jobs stay at one block: Spark sorts a partition as
// JVM objects (7.2x its size), so a partition above ~0.5 GB exceeds the
// worker heap — the paper's Spark OOM — and at this data scale a few
// lines of skew can put most of an input in one partition.
var streamSizesGB = []float64{0.25, 0.5, 1, 2}

const streamSortGB = 0.25

type streamTenant struct {
	name  string
	layer string
	mk    func(fs *dfs.FS) datampi.ConcurrentEngine
}

var streamTenants = []streamTenant{
	{"hadoop", "mr", func(fs *dfs.FS) datampi.ConcurrentEngine { return datampi.NewHadoop(fs) }},
	{"spark", "rdd", func(fs *dfs.FS) datampi.ConcurrentEngine { return datampi.NewSpark(fs) }},
	{"datampi", "core", func(fs *dfs.FS) datampi.ConcurrentEngine { return datampi.New(fs, datampi.DefaultConfig()) }},
}

// streamJob is one job of the stream, drawn from the seed.
type streamJob struct {
	tenant int
	kind   string
	gb     float64
	seed   int64
	spec   job.Spec
}

// streamJobs gives every tenant the same mix of kinds and sizes; the
// seed shuffles their order and draws each job's text (and, through
// PoissonArrivals, the arrival times), so the work per run does not
// depend on the seed.
func streamJobs(seed int64) []streamJob {
	rng := rand.New(rand.NewSource(seed))
	kinds := []string{kindWordCount, kindGrep, kindSort}
	var out []streamJob
	for t := range streamTenants {
		mix := make([]streamJob, streamJobsPerTenant)
		for i := range mix {
			mix[i] = streamJob{tenant: t, kind: kinds[i%len(kinds)],
				gb: streamSizesGB[(i/len(kinds))%len(streamSizesGB)]}
			if mix[i].kind == kindSort {
				mix[i].gb = streamSortGB
			}
		}
		rng.Shuffle(len(mix), func(a, b int) { mix[a], mix[b] = mix[b], mix[a] })
		for i := range mix {
			mix[i].seed = rng.Int63()
		}
		out = append(out, mix...)
	}
	return out
}

// jobstreamPass stages every job's input on a fresh testbed and runs the
// whole stream as one scenario.
func jobstreamPass(b *bench, seed int64, traced bool) *passResult {
	p := newPassResult()
	rec := b.rec
	pass := rec.begin(0, "jobstream.pass", "bench", "pass")
	defer rec.end(pass)

	var tb *datampi.Testbed
	engines := make([]datampi.ConcurrentEngine, len(streamTenants))
	p.setup("harness.rig_s", rec.call(pass, "datampi.NewTestbed", "harness", "setup", func() {
		tb = datampi.NewTestbed(datampi.TestbedConfig{Scale: streamScale, Seed: seed})
		for i, t := range streamTenants {
			engines[i] = t.mk(tb.FS)
		}
	}))
	jobs := streamJobs(seed)
	model := bdb.LDAWiki1W()
	for i := range jobs {
		j := &jobs[i]
		var data []byte
		p.setup("bdb.gen_s", rec.call(pass, "bdb.GenerateText", "bdb", "setup", func() {
			data = model.GenerateText(j.seed, int(j.gb*cluster.GB/streamScale))
		}))
		var in *dfs.File
		name := fmt.Sprintf("/js/%s/in-%d", streamTenants[j.tenant].name, i)
		p.setup("dfs.load_s", rec.call(pass, "dfs.PreloadAligned", "dfs", "setup", func() {
			in = tb.FS.PreloadAligned(name, data, '\n')
		}))
		p.exact["bdb.gen_MB"] += float64(len(data)) / mib
		p.exact["dfs.blocks"] += float64(len(in.Blocks))
		out := fmt.Sprintf("/js/%s/out-%d", streamTenants[j.tenant].name, i)
		switch j.kind {
		case kindWordCount:
			j.spec = bdb.WordCountSpec(tb.FS, in, out, streamReducers)
		case kindGrep:
			j.spec = bdb.GrepSpec(tb.FS, in, out, harness.GrepPattern, streamReducers)
		default:
			j.spec = bdb.TextSortSpec(tb.FS, in, out, streamReducers)
		}
	}

	opts := []datampi.ScenarioOption{
		datampi.WithPolicy(datampi.Fair),
		datampi.WithSpeculation(datampi.SpeculationConfig{Enabled: true}),
		datampi.WithTransport(datampi.TransportConfig{Enabled: true}),
	}
	if traced {
		opts = append(opts, datampi.WithTracing(datampi.TraceConfig{}))
	}
	for t, st := range streamTenants {
		var mine []job.Spec
		for _, j := range jobs {
			if j.tenant == t {
				mine = append(mine, j.spec)
			}
		}
		opts = append(opts, datampi.Tenant(st.name, 1, engines[t]),
			datampi.PoissonArrivals(st.name, streamRate, len(mine), seed+int64(t)+1,
				func(i int) datampi.Job { return mine[i] }))
	}
	var sc *datampi.Scenario
	p.setup("harness.rig_s", rec.call(pass, "datampi.NewScenario", "datampi", "setup", func() {
		sc = datampi.NewScenario(tb, opts...)
	}))
	var rep *datampi.Report
	var runErr error
	before := readRuntime()
	d := rec.call(pass, "datampi.Scenario.Run", "sched", "run", func() { rep, runErr = sc.Run() })
	p.run("sched", d, readRuntime().sub(before))
	if rep == nil {
		p.attempted += len(jobs)
		p.failed += len(jobs)
		p.errs = append(p.errs, fmt.Sprintf("jobstream: %v", runErr))
		return p
	}

	// Every job is checked against the oracle after the timed run.
	for i, j := range jobs {
		p.attempted++
		p.inputs[inputKey(j.kind, j.spec.Input)] = j.spec
		if err := b.check(j.kind, j.spec, pass); err != nil {
			p.fail(fmt.Errorf("jobstream job %d (%s %s): %w", i, streamTenants[j.tenant].name, j.kind, err))
		}
	}
	if len(rep.Jobs) != len(jobs) {
		p.fail(fmt.Errorf("jobstream: report has %d jobs, %d submitted", len(rep.Jobs), len(jobs)))
	}
	var responses []float64
	for i, jr := range rep.Jobs {
		if err := jr.Result.Err; err != nil {
			p.errs = append(p.errs, fmt.Sprintf("jobstream job %d (%s): %v", i, jr.Tenant, err))
		}
		responses = append(responses, jr.Response)
		key := fmt.Sprintf("job%d/%s", i, jr.Tenant)
		p.fact(key+"/arrival", jr.Arrival)
		p.fact(key+"/response", jr.Response)
		p.fact(key+"/elapsed", jr.Result.Elapsed)
		for _, c := range sortedKeys(jr.Result.Counters) {
			p.fact(key+"/counter/"+c, float64(jr.Result.Counters[c]))
		}
		layer := streamTenants[tenantIndex(jr.Tenant)].layer
		p.exact[layer+".sim_s"] += jr.Result.Elapsed
		if c, ok := shuffleCounter[layer]; ok {
			p.exact[layer+".shuffle_MB"] += float64(jr.Result.Counters[c]) / mib
		}
	}
	for _, t := range rep.Tenants {
		p.fact("tenant/"+t.Name+"/p50", t.Response.P50)
		p.fact("tenant/"+t.Name+"/p95", t.Response.P95)
		p.fact("tenant/"+t.Name+"/mean", t.Response.Mean)
		p.fact("tenant/"+t.Name+"/slot_seconds", t.SlotSeconds)
	}
	st, tp := rep.Tracker, rep.Transport
	p.fact("tracker", float64(st.Tasks), float64(st.Backups), float64(st.BackupWins),
		float64(st.Kills), float64(st.Preemptions), float64(st.Retries))
	p.fact("transport", float64(tp.Transfers), tp.BytesSerialized, tp.BytesCopied,
		tp.BytesZeroCopied, tp.BytesWire, tp.BytesPipelined, tp.BytesOverlapped)
	p.fact("makespan", rep.Makespan)

	p.exact["sched.tasks"] = float64(st.Tasks)
	p.exact["sched.backups"] = float64(st.Backups)
	p.exact["sched.kills"] = float64(st.Kills)
	p.exact["sched.response_p50_s"] = nearestRank(responses, 0.50)
	p.exact["sched.response_p95_s"] = nearestRank(responses, 0.95)
	p.exact["sched.responses"] = float64(len(responses))
	p.exact["sim.makespan_s"] = rep.Makespan
	p.exact["transport.transfers"] = float64(tp.Transfers)
	p.exact["transport.serialized_MB"] = tp.BytesSerialized / mib
	p.exact["transport.zero_copy_MB"] = tp.BytesZeroCopied / mib
	p.exact["transport.wire_MB"] = tp.BytesWire / mib
	p.exact["transport.overlap_frac"] = tp.OverlapFraction()
	if rep.Trace != nil {
		waitSpans(rep.Trace, p)
	}
	return p
}

func tenantIndex(name string) int {
	for i, t := range streamTenants {
		if t.name == name {
			return i
		}
	}
	return 0
}
