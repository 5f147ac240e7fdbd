package core

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/kv"
	"github.com/datampi/datampi-go/internal/metrics"
)

func testSetup(blockSize float64, scale float64) (*cluster.Cluster, *dfs.FS, *Engine) {
	c := cluster.New(cluster.DefaultHardware())
	fs := dfs.New(c, dfs.Config{BlockSize: blockSize, Replication: 3, Scale: scale, Seed: 1, PerBlockOverhead: 0.05})
	return c, fs, New(fs, DefaultConfig())
}

func genText(seed int64, nBytes int) []byte {
	words := []string{"mpi", "data", "key", "value", "pair", "comm", "rank", "task"}
	rng := rand.New(rand.NewSource(seed))
	var buf bytes.Buffer
	for buf.Len() < nBytes {
		n := 4 + rng.Intn(8)
		for i := 0; i < n; i++ {
			if i > 0 {
				buf.WriteByte(' ')
			}
			buf.WriteString(words[rng.Intn(len(words))])
		}
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func wcSpec(fs *dfs.FS, in *dfs.File, out string, reducers int) job.Spec {
	return job.Spec{
		Name: "wordcount", FS: fs, Input: in, InputFormat: job.Text,
		Output: out, Reducers: reducers,
		Map: func(key, value []byte, emit job.Emit) {
			for _, w := range bytes.Fields(value) {
				emit(w, []byte("1"))
			}
		},
		Combine: kv.SumCombiner,
		Reduce: func(key []byte, values [][]byte) []kv.Pair {
			var sum int64
			for _, v := range values {
				sum += kv.ParseInt(v)
			}
			return []kv.Pair{{Key: key, Value: kv.FormatInt(sum)}}
		},
		MapCPUFactor: 3.5,
	}
}

func refCounts(data []byte) map[string]int64 {
	counts := map[string]int64{}
	for _, line := range bytes.Split(data, []byte("\n")) {
		for _, w := range bytes.Fields(line) {
			counts[string(w)]++
		}
	}
	return counts
}

func TestWordCountCorrectness(t *testing.T) {
	_, fs, eng := testSetup(8*cluster.KB, 1)
	data := genText(1, 64*1024)
	in := fs.PreloadAligned("/in", data, '\n')
	res := eng.Run(wcSpec(fs, in, "/out", 8))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	got := map[string]int64{}
	for _, p := range job.ReadTextOutput(fs, "/out") {
		got[string(p.Key)] += kv.ParseInt(p.Value)
	}
	want := refCounts(data)
	for w, n := range want {
		if got[w] != n {
			t.Fatalf("count[%s]=%d want %d", w, got[w], n)
		}
	}
	if res.Phases["O"] <= 0 || res.Phases["A"] <= 0 {
		t.Fatalf("phases missing: %v", res.Phases)
	}
}

func TestSortGlobalOrder(t *testing.T) {
	_, fs, eng := testSetup(8*cluster.KB, 1)
	data := genText(2, 32*1024)
	in := fs.PreloadAligned("/in", data, '\n')
	spec := job.Spec{
		Name: "textsort", FS: fs, Input: in, InputFormat: job.Text,
		Output: "/out", Reducers: 4,
		Map:  func(key, value []byte, emit job.Emit) { emit(value, nil) },
		Part: &kv.RangePartitioner{Boundaries: [][]byte{[]byte("k"), []byte("p"), []byte("t")}},
	}
	res := eng.Run(spec)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	out := job.ReadTextOutput(fs, "/out")
	for i := 1; i < len(out); i++ {
		if bytes.Compare(out[i-1].Key, out[i].Key) > 0 {
			t.Fatalf("not sorted at %d", i)
		}
	}
	nLines := 0
	for _, l := range bytes.Split(data, []byte("\n")) {
		if len(l) > 0 {
			nLines++
		}
	}
	if len(out) != nLines {
		t.Fatalf("output %d lines, want %d", len(out), nLines)
	}
}

func TestFasterThanHadoopOverheads(t *testing.T) {
	// DataMPI's startup overheads must be well under Hadoop's: a tiny job
	// completes in a few seconds of simulated time.
	_, fs, eng := testSetup(256*cluster.MB, 4096)
	in := fs.PreloadAligned("/in", genText(3, int(128*cluster.MB/4096)), '\n')
	res := eng.Run(wcSpec(fs, in, "/out", 8))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Elapsed > 30 {
		t.Fatalf("small DataMPI job took %.1fs, want under Hadoop's ~35s", res.Elapsed)
	}
	cfg := DefaultConfig()
	if res.Elapsed < cfg.MPIRunLaunch+cfg.JobFinalize {
		t.Fatalf("job faster than launch overheads: %.2fs", res.Elapsed)
	}
}

func TestMapOnlyJob(t *testing.T) {
	_, fs, eng := testSetup(8*cluster.KB, 1)
	data := genText(4, 16*1024)
	in := fs.PreloadAligned("/in", data, '\n')
	spec := job.Spec{
		Name: "grep", FS: fs, Input: in, InputFormat: job.Text,
		Output: "/out", Reducers: 0,
		Map: func(key, value []byte, emit job.Emit) {
			if bytes.Contains(value, []byte("mpi")) {
				emit(value, nil)
			}
		},
	}
	res := eng.Run(spec)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	out := job.ReadTextOutput(fs, "/out")
	if len(out) == 0 {
		t.Fatal("no output")
	}
	for _, p := range out {
		if !bytes.Contains(p.Key, []byte("mpi")) {
			t.Fatalf("non-matching output %q", p.Key)
		}
	}
}

func TestCheckpointRestartRecovers(t *testing.T) {
	_, fs, eng := testSetup(8*cluster.KB, 1)
	data := genText(5, 64*1024)
	in := fs.PreloadAligned("/in", data, '\n')
	eng.Cfg.Checkpoint = true
	eng.Cfg.FailATask = 2 // A task 2 dies once after receiving its data
	res := eng.Run(wcSpec(fs, in, "/out", 8))
	if res.Err != nil {
		t.Fatalf("job with checkpoint should survive failure: %v", res.Err)
	}
	got := map[string]int64{}
	for _, p := range job.ReadTextOutput(fs, "/out/part-a-") {
		got[string(p.Key)] += kv.ParseInt(p.Value)
	}
	want := refCounts(data)
	for w, n := range want {
		if got[w] != n {
			t.Fatalf("after restart, count[%s]=%d want %d", w, got[w], n)
		}
	}
}

func TestFailureWithoutCheckpointFailsJob(t *testing.T) {
	_, fs, eng := testSetup(8*cluster.KB, 1)
	in := fs.PreloadAligned("/in", genText(6, 32*1024), '\n')
	eng.Cfg.Checkpoint = false
	eng.Cfg.FailATask = 1
	res := eng.Run(wcSpec(fs, in, "/out", 4))
	if res.Err == nil {
		t.Fatal("expected job failure without checkpointing")
	}
}

func TestCheckpointSlowerThanNoCheckpoint(t *testing.T) {
	run := func(ck bool) float64 {
		_, fs, eng := testSetup(64*cluster.KB, 64)
		in := fs.PreloadAligned("/in", genText(7, 512*1024), '\n')
		eng.Cfg.Checkpoint = ck
		res := eng.Run(wcSpec(fs, in, "/out", 8))
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return res.Elapsed
	}
	plain, withCk := run(false), run(true)
	if withCk <= plain {
		t.Fatalf("checkpointing (%.2fs) should cost time vs %.2fs", withCk, plain)
	}
}

func TestABufferSpill(t *testing.T) {
	_, fs, eng := testSetup(8*cluster.KB, 1)
	data := genText(8, 128*1024)
	in := fs.PreloadAligned("/in", data, '\n')
	eng.Cfg.ABufferBytes = 4 * cluster.KB // force A-side spills
	res := eng.Run(wcSpec(fs, in, "/out", 4))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	got := map[string]int64{}
	for _, p := range job.ReadTextOutput(fs, "/out") {
		got[string(p.Key)] += kv.ParseInt(p.Value)
	}
	want := refCounts(data)
	for w, n := range want {
		if got[w] != n {
			t.Fatalf("with spills, count[%s]=%d want %d", w, got[w], n)
		}
	}
}

func TestMemoryReturnsToZero(t *testing.T) {
	c, fs, eng := testSetup(16*cluster.KB, 1)
	in := fs.PreloadAligned("/in", genText(9, 64*1024), '\n')
	res := eng.Run(wcSpec(fs, in, "/out", 4))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	for i := 0; i < c.N(); i++ {
		if used := c.Node(i).Mem.Used(); used != 0 {
			t.Fatalf("node %d leaked %.0f bytes", i, used)
		}
	}
}

func TestProfilerSeesPipelinedNetwork(t *testing.T) {
	c, fs, eng := testSetup(2*cluster.MB, 256)
	in := fs.PreloadAligned("/in", genText(10, 1024*1024), '\n')
	prof := metrics.NewProfiler(c, 0.2)
	fs.SetProfiler(prof)
	eng.Prof = prof
	spec := job.Spec{
		Name: "sort", FS: fs, Input: in, InputFormat: job.Text,
		Output: "/out", Reducers: 32,
		Map:  func(key, value []byte, emit job.Emit) { emit(value, nil) },
		Part: kv.HashPartitioner{},
	}
	res := eng.Run(spec)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	w := prof.Series().Aggregate(0)
	if w.AvgNet <= 0 {
		t.Fatal("no network activity profiled during shuffle")
	}
}

func TestDeterministic(t *testing.T) {
	run := func() float64 {
		_, fs, eng := testSetup(8*cluster.KB, 1)
		in := fs.PreloadAligned("/in", genText(11, 32*1024), '\n')
		res := eng.Run(wcSpec(fs, in, "/out", 4))
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return res.Elapsed
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

func TestIterationModeConverges(t *testing.T) {
	// A toy iterative computation: global state is a sum target; each
	// round every O task emits its local count, A aggregates, and the
	// state accumulates until round 3 stops it.
	_, fs, eng := testSetup(8*cluster.KB, 1)
	in := fs.PreloadAligned("/in", genText(12, 32*1024), '\n')
	it := IterationJob[int]{
		Name: "toy", Input: in, InputFormat: job.Text, Rounds: 5,
		LoadO: func(records []kv.Pair) any { return len(records) },
		RunO: func(round int, state int, cached any, emit job.Emit) {
			emit([]byte("n"), kv.FormatInt(int64(cached.(int))))
		},
		RunA: func(round int, grouped []kv.Pair) []kv.Pair {
			var sum int64
			for _, p := range grouped {
				sum += kv.ParseInt(p.Value)
			}
			return []kv.Pair{{Key: []byte("n"), Value: kv.FormatInt(sum)}}
		},
		MergeState: func(round int, state int, aggs []kv.Pair) (int, bool) {
			var sum int64
			for _, p := range aggs {
				sum += kv.ParseInt(p.Value)
			}
			return state + int(sum), round >= 3
		},
		StateNominalBytes: 1024,
	}
	res := RunIteration(eng, it, 0)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Rounds != 3 {
		t.Fatalf("rounds = %d, want 3", res.Rounds)
	}
	nLines := 0
	for _, l := range bytes.Split(genText(12, 32*1024), []byte("\n")) {
		if len(l) > 0 {
			nLines++
		}
	}
	if res.State != 3*nLines {
		t.Fatalf("state = %d, want %d", res.State, 3*nLines)
	}
	if res.FirstRound <= 0 || res.FirstRound > res.Elapsed {
		t.Fatalf("first round %v vs elapsed %v", res.FirstRound, res.Elapsed)
	}
}

func TestIterationLaterRoundsFasterThanFirst(t *testing.T) {
	// Rounds after the first skip the input load: they must be faster.
	_, fs, eng := testSetup(1*cluster.MB, 64)
	in := fs.PreloadAligned("/in", genText(13, 2*1024*1024), '\n')
	it := IterationJob[int]{
		Name: "toy2", Input: in, InputFormat: job.Text, Rounds: 3,
		CPUFactorO: 2,
		LoadO:      func(records []kv.Pair) any { return len(records) },
		RunO: func(round, state int, cached any, emit job.Emit) {
			emit([]byte("x"), []byte("1"))
		},
		RunA: func(round int, grouped []kv.Pair) []kv.Pair {
			if len(grouped) == 0 {
				return nil
			}
			return grouped[:1]
		},
		MergeState: func(round, state int, aggs []kv.Pair) (int, bool) {
			return state, false
		},
		StateNominalBytes: 1024,
	}
	res := RunIteration(eng, it, 0)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.RoundTimes) != 3 {
		t.Fatalf("round times: %v", res.RoundTimes)
	}
	if res.RoundTimes[1] >= res.RoundTimes[0] {
		t.Fatalf("round 2 (%.2fs) should beat round 1 (%.2fs) thanks to caching",
			res.RoundTimes[1], res.RoundTimes[0])
	}
}

var _ = fmt.Sprintf

func TestJobCounters(t *testing.T) {
	_, fs, eng := testSetup(8*cluster.KB, 1)
	in := fs.PreloadAligned("/in", genText(14, 64*1024), '\n')
	res := eng.Run(wcSpec(fs, in, "/out", 4))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Counters["o_tasks"] == 0 || res.Counters["a_tasks"] != 4 {
		t.Fatalf("task counters = %v", res.Counters)
	}
	if res.Counters["pipelined_bytes_nominal"] <= 0 {
		t.Fatal("no pipelined bytes recorded")
	}
}

// TestIterationLoadFailureReleasesMemory: an Iteration-mode job whose
// input cannot be decoded returns the decode error and frees every O
// rank's process and cached memory.
func TestIterationLoadFailureReleasesMemory(t *testing.T) {
	c, fs, eng := testSetup(8*cluster.KB, 1)
	in := fs.PreloadAligned("/in", genText(14, 32*1024), '\n')
	if len(in.Blocks) < 4 {
		t.Fatalf("want at least 4 input blocks, got %d", len(in.Blocks))
	}
	it := IterationJob[int]{
		Name: "undecodable", Input: in, InputFormat: job.SeqGzip, Rounds: 2,
		LoadO:      func(records []kv.Pair) any { return len(records) },
		RunO:       func(round int, state int, cached any, emit job.Emit) {},
		RunA:       func(round int, grouped []kv.Pair) []kv.Pair { return nil },
		MergeState: func(round int, state int, aggs []kv.Pair) (int, bool) { return state, true },
	}
	res := RunIteration(eng, it, 0)
	if !errors.Is(res.Err, gzip.ErrHeader) {
		t.Fatalf("error %v, want one wrapping %v", res.Err, gzip.ErrHeader)
	}
	for i := 0; i < c.N(); i++ {
		if used := c.Node(i).Mem.Used(); used != 0 {
			t.Fatalf("node %d leaked %.0f bytes", i, used)
		}
	}
}
