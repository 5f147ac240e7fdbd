package rdd

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/kv"
	"github.com/datampi/datampi-go/internal/sim"
)

func testSetup(blockSize float64, scale float64) (*cluster.Cluster, *dfs.FS, *Engine) {
	c := cluster.New(cluster.DefaultHardware())
	fs := dfs.New(c, dfs.Config{BlockSize: blockSize, Replication: 3, Scale: scale, Seed: 1, PerBlockOverhead: 0.05})
	return c, fs, New(fs, DefaultConfig())
}

func genText(seed int64, nBytes int) []byte {
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
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

func TestWordCountViaAdapter(t *testing.T) {
	_, fs, eng := testSetup(8*cluster.KB, 1)
	data := genText(1, 64*1024)
	in := fs.PreloadAligned("/in", data, '\n')
	res := eng.Run(wcSpec(fs, in, "/out", 8))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	want := map[string]int64{}
	for _, line := range bytes.Split(data, []byte("\n")) {
		for _, w := range bytes.Fields(line) {
			want[string(w)]++
		}
	}
	got := map[string]int64{}
	for _, p := range job.ReadTextOutput(fs, "/out") {
		got[string(p.Key)] += kv.ParseInt(p.Value)
	}
	if len(got) != len(want) {
		t.Fatalf("distinct words: got %d want %d", len(got), len(want))
	}
	for w, n := range want {
		if got[w] != n {
			t.Fatalf("count[%s]=%d want %d", w, got[w], n)
		}
	}
	if res.Phases["stage0"] <= 0 || res.Phases["stage1"] <= 0 {
		t.Fatalf("stage phases missing: %v", res.Phases)
	}
}

func TestSortByKeyTotalOrder(t *testing.T) {
	_, fs, eng := testSetup(8*cluster.KB, 1)
	data := genText(2, 32*1024)
	in := fs.PreloadAligned("/in", data, '\n')
	spec := job.Spec{
		Name: "textsort", FS: fs, Input: in, InputFormat: job.Text,
		Output: "/out", Reducers: 4,
		Map:  func(key, value []byte, emit job.Emit) { emit(value, nil) },
		Part: &kv.RangePartitioner{Boundaries: [][]byte{[]byte("d"), []byte("f"), []byte("g")}},
	}
	res := eng.Run(spec)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	out := job.ReadTextOutput(fs, "/out")
	for i := 1; i < len(out); i++ {
		if bytes.Compare(out[i-1].Key, out[i].Key) > 0 {
			t.Fatalf("not sorted at %d: %q > %q", i, out[i-1].Key, out[i].Key)
		}
	}
	nLines := 0
	for _, l := range bytes.Split(data, []byte("\n")) {
		if len(l) > 0 {
			nLines++
		}
	}
	if len(out) != nLines {
		t.Fatalf("output lines %d, want %d", len(out), nLines)
	}
}

// sampledBoundaries builds balanced range-partition boundaries over the
// given text's lines, the way the sort workload samples its input.
func sampledBoundaries(data []byte, parts int) [][]byte {
	var sample [][]byte
	for i, l := range bytes.Split(data, []byte("\n")) {
		if len(l) > 0 && i%7 == 0 {
			sample = append(sample, l)
		}
	}
	return kv.SampleBoundaries(sample, parts)
}

func TestSortOOMOnLargePartitions(t *testing.T) {
	// 16 GB nominal text sorted into 32 partitions = 512 MB/partition.
	// With expansion 4.5 and sort overhead 1.6 the working set is ~3.7 GB
	// per worker > 3.5 GB heap -> OutOfMemoryError, matching the paper's
	// Text Sort failures above 8 GB.
	_, fs, eng := testSetup(256*cluster.MB, 1<<16)
	actual := int(16 * cluster.GB / (1 << 16))
	data := genText(3, actual)
	in := fs.PreloadAligned("/in", data, '\n')
	spec := job.Spec{
		Name: "textsort16g", FS: fs, Input: in, InputFormat: job.Text,
		Output: "/out", Reducers: 32,
		Map:  func(key, value []byte, emit job.Emit) { emit(value, nil) },
		Part: &kv.RangePartitioner{Boundaries: sampledBoundaries(data, 32)},
	}
	res := eng.Run(spec)
	if res.Err == nil {
		t.Fatal("expected OOM for 16GB sort")
	}
	var oom *sim.OOMError
	if !errorsAs(res.Err, &oom) {
		t.Fatalf("error = %v, want OOMError", res.Err)
	}
}

func errorsAs(err error, target **sim.OOMError) bool {
	if e, ok := err.(*sim.OOMError); ok {
		*target = e
		return true
	}
	return false
}

func TestSort8GBSucceeds(t *testing.T) {
	// 8 GB into 32 partitions = 256 MB/partition -> working set ~1.8 GB
	// per worker < 3.5 GB heap: succeeds, as the paper's 8 GB case does.
	_, fs, eng := testSetup(256*cluster.MB, 1<<16)
	actual := int(8 * cluster.GB / (1 << 16))
	data := genText(4, actual)
	in := fs.PreloadAligned("/in", data, '\n')
	spec := job.Spec{
		Name: "textsort8g", FS: fs, Input: in, InputFormat: job.Text,
		Output: "/out", Reducers: 32,
		Map:  func(key, value []byte, emit job.Emit) { emit(value, nil) },
		Part: &kv.RangePartitioner{Boundaries: sampledBoundaries(data, 32)},
	}
	res := eng.Run(spec)
	if res.Err != nil {
		t.Fatalf("8GB sort should fit: %v", res.Err)
	}
}

func TestCacheSpeedsUpSecondAction(t *testing.T) {
	_, fs, eng := testSetup(16*cluster.KB, 1)
	in := fs.PreloadAligned("/in", genText(5, 128*1024), '\n')
	rdd := eng.TextFile(in).FlatMapKV(func(k, v []byte, emit job.Emit) {
		emit(v, nil)
	}, 1).Cache()

	_, r1 := rdd.Collect()
	if r1.Err != nil {
		t.Fatal(r1.Err)
	}
	t1 := r1.Elapsed
	_, r2 := rdd.Collect()
	if r2.Err != nil {
		t.Fatal(r2.Err)
	}
	t2 := r2.Elapsed
	if t2 >= t1 {
		t.Fatalf("cached action (%.2fs) not faster than first (%.2fs)", t2, t1)
	}
}

// TestCacheLossRecompute: a node failure drops every cached RDD holding a
// partition on it (frees the pins, invalidates the cache) and the next
// action transparently recomputes and re-materializes through lineage,
// tallying the lost partitions for the recovery counters.
func TestCacheLossRecompute(t *testing.T) {
	c, fs, eng := testSetup(16*cluster.KB, 1)
	in := fs.PreloadAligned("/in", genText(11, 128*1024), '\n')
	rdd := eng.TextFile(in).FlatMapKV(func(k, v []byte, emit job.Emit) {
		emit(v, nil)
	}, 1).Cache()

	p1, r1 := rdd.Collect()
	if r1.Err != nil {
		t.Fatal(r1.Err)
	}
	if !rdd.inCache || len(eng.cachedRDDs) != 1 {
		t.Fatalf("cache not materialized/registered: inCache=%v registered=%d", rdd.inCache, len(eng.cachedRDDs))
	}
	pinned := 0.0
	for i := 0; i < c.N(); i++ {
		pinned += c.Node(i).Mem.Used()
	}
	if pinned == 0 {
		t.Fatal("no cache pins held between actions")
	}

	victim := rdd.cacheData[0].node
	fs.NodeDown(victim)
	if rdd.inCache || rdd.cacheData != nil {
		t.Fatal("node failure did not invalidate the cached RDD")
	}
	if rdd.lostParts == 0 {
		t.Fatal("lost partitions not tallied")
	}
	for i := 0; i < c.N(); i++ {
		if used := c.Node(i).Mem.Used(); used != 0 {
			t.Fatalf("node %d still pins %.0f bytes after cache drop", i, used)
		}
	}

	// Next action recomputes through lineage and re-materializes.
	fs.NodeUp(victim)
	p2, r2 := rdd.Collect()
	if r2.Err != nil {
		t.Fatal(r2.Err)
	}
	if len(p2) != len(p1) {
		t.Fatalf("recomputed action returned %d records, want %d", len(p2), len(p1))
	}
	if !rdd.inCache {
		t.Fatal("recompute did not re-materialize the cache")
	}
	if rdd.lostParts != 0 {
		t.Fatalf("lost-partition tally not charged on refill: %d", rdd.lostParts)
	}
	if len(eng.cachedRDDs) != 1 {
		t.Fatalf("re-registration duplicated the RDD: %d entries", len(eng.cachedRDDs))
	}
	// And the cache works again: a third action reads it.
	_, r3 := rdd.Collect()
	if r3.Err != nil {
		t.Fatal(r3.Err)
	}
	if r3.Elapsed >= r2.Elapsed {
		t.Fatalf("re-cached action (%.2fs) not faster than recompute (%.2fs)", r3.Elapsed, r2.Elapsed)
	}
}

// TestEvictedCacheRecomputesFromLineage: a cached RDD whose partitions
// do not fit in executor memory is silently left uncached (Spark's
// eviction), and an action reading through it recomputes from lineage
// instead of failing as if a node had been lost mid-job. Covers cached
// RDDs rooted at a source, a narrow chain and a shuffle, and one cached
// RDD over another.
func TestEvictedCacheRecomputesFromLineage(t *testing.T) {
	words := func(k, v []byte, emit job.Emit) {
		for _, w := range bytes.Fields(v) {
			emit(w, []byte("1"))
		}
	}
	// Counting values (not summing them) makes a second application
	// to already-reduced pairs visible: it would report 1 per word.
	count := func(key []byte, values [][]byte) []kv.Pair {
		return []kv.Pair{{Key: key, Value: kv.FormatInt(int64(len(values)))}}
	}
	ident := func(k, v []byte, emit job.Emit) { emit(k, v) }
	// build returns the RDD under test; cache marks an RDD cached (or
	// leaves it alone, for the uncached run the results are held to).
	lineages := []struct {
		name  string
		build func(src *RDD, cache func(*RDD) *RDD) *RDD
	}{
		{"source", func(src *RDD, cache func(*RDD) *RDD) *RDD { return cache(src) }},
		{"narrow", func(src *RDD, cache func(*RDD) *RDD) *RDD { return cache(src.FlatMapKV(words, 1)) }},
		{"wide", func(src *RDD, cache func(*RDD) *RDD) *RDD {
			return cache(src.FlatMapKV(words, 1).GroupByKey(count, 4))
		}},
		{"nested", func(src *RDD, cache func(*RDD) *RDD) *RDD {
			return cache(cache(src.FlatMapKV(words, 1)).FlatMapKV(ident, 1))
		}},
	}
	for _, lin := range lineages {
		t.Run(lin.name, func(t *testing.T) {
			run := func(cache bool) (*RDD, [][]kv.Pair) {
				c := cluster.New(cluster.DefaultHardware())
				fs := dfs.New(c, dfs.Config{BlockSize: 16 * cluster.KB, Replication: 3, Scale: 1, Seed: 1, PerBlockOverhead: 0.05})
				cfg := DefaultConfig()
				cfg.WorkerHeap = 1 * cluster.KB // far below any node's share of the cached RDD
				eng := New(fs, cfg)
				in := fs.PreloadAligned("/in", genText(13, 128*1024), '\n')
				mark := func(r *RDD) *RDD { return r }
				if cache {
					mark = (*RDD).Cache
				}
				base := lin.build(eng.TextFile(in), mark)
				var outs [][]kv.Pair
				for action := 0; action < 2; action++ {
					out, res := base.FlatMapKV(ident, 1).Collect()
					if res.Err != nil {
						t.Fatalf("cache=%v action %d: %v", cache, action, res.Err)
					}
					outs = append(outs, out)
				}
				return base, outs
			}
			cached, got := run(true)
			if cached.inCache || !cached.evicted {
				t.Fatalf("oversized RDD: inCache=%v evicted=%v, want evicted", cached.inCache, cached.evicted)
			}
			_, want := run(false)
			for action := range want {
				if len(got[action]) == 0 || len(got[action]) != len(want[action]) {
					t.Fatalf("action %d: %d records, uncached lineage gives %d", action, len(got[action]), len(want[action]))
				}
				for i := range want[action] {
					if kv.Compare(got[action][i], want[action][i]) != 0 {
						t.Fatalf("action %d record %d: %q=%q, uncached lineage gives %q=%q", action, i,
							got[action][i].Key, got[action][i].Value, want[action][i].Key, want[action][i].Value)
					}
				}
			}
		})
	}
}

func TestCollectReturnsData(t *testing.T) {
	_, fs, eng := testSetup(8*cluster.KB, 1)
	data := genText(6, 8*1024)
	in := fs.PreloadAligned("/in", data, '\n')
	pairs, res := eng.TextFile(in).Collect()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	nLines := 0
	for _, l := range bytes.Split(data, []byte("\n")) {
		if len(l) > 0 {
			nLines++
		}
	}
	if len(pairs) != nLines {
		t.Fatalf("collected %d records, want %d", len(pairs), nLines)
	}
}

func TestFilter(t *testing.T) {
	_, fs, eng := testSetup(8*cluster.KB, 1)
	in := fs.PreloadAligned("/in", genText(7, 8*1024), '\n')
	pairs, res := eng.TextFile(in).Filter(func(p kv.Pair) bool {
		return bytes.Contains(p.Value, []byte("alpha"))
	}).Collect()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(pairs) == 0 {
		t.Fatal("filter dropped everything")
	}
	for _, p := range pairs {
		if !bytes.Contains(p.Value, []byte("alpha")) {
			t.Fatalf("filter leaked %q", p.Value)
		}
	}
}

func TestAppLaunchOnlyOnce(t *testing.T) {
	_, fs, eng := testSetup(8*cluster.KB, 1)
	in := fs.PreloadAligned("/in", genText(8, 8*1024), '\n')
	_, r1 := eng.TextFile(in).Collect()
	_, r2 := eng.TextFile(in).Collect()
	if r1.Err != nil || r2.Err != nil {
		t.Fatal(r1.Err, r2.Err)
	}
	if r2.Elapsed >= r1.Elapsed {
		t.Fatalf("second job (%.2f) should skip app launch of first (%.2f)", r2.Elapsed, r1.Elapsed)
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
			t.Fatalf("node %d has %.0f bytes leaked", i, used)
		}
	}
}

func TestDeterministic(t *testing.T) {
	run := func() float64 {
		_, fs, eng := testSetup(8*cluster.KB, 1)
		in := fs.PreloadAligned("/in", genText(10, 32*1024), '\n')
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
