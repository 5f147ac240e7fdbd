package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sort"
	"time"

	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/kv"
	"github.com/datampi/datampi-go/internal/mr"
)

// oracle caches job.RunSequential outputs by job kind and input
// content, so every engine run of the same input is checked against
// one sequential result without recomputing it each pass.
type oracle struct {
	want map[[32]byte][]kv.Pair
}

func newOracle() *oracle { return &oracle{want: map[[32]byte][]kv.Pair{}} }

func inputKey(kind string, in *dfs.File) [32]byte {
	h := sha256.New()
	h.Write([]byte(kind))
	for _, b := range in.Blocks {
		h.Write(b.Data)
	}
	var k [32]byte
	copy(k[:], h.Sum(nil))
	return k
}

// check compares the job's output files with the sequential oracle on
// the same spec. Sort output must match record for record in partition
// order (global order is the job's result); aggregations must match as
// sets of pairs.
func (o *oracle) check(kind string, spec job.Spec) error {
	k := inputKey(kind, spec.Input)
	want, ok := o.want[k]
	if !ok {
		var err error
		if want, err = job.RunSequential(spec); err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		o.want[k] = want
	}
	got := job.ReadTextOutput(spec.FS, spec.Output+"/")
	if kind != kindSort {
		got, want = sortedPairs(got), sortedPairs(want)
	}
	if len(got) != len(want) {
		return fmt.Errorf("output has %d records, oracle %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
			return fmt.Errorf("output record %d is %s, oracle %s", i, got[i], want[i])
		}
	}
	return nil
}

func sortedPairs(ps []kv.Pair) []kv.Pair {
	c := append([]kv.Pair(nil), ps...)
	sort.Slice(c, func(i, j int) bool { return kv.Compare(c[i], c[j]) < 0 })
	return c
}

// replay holds the host cost of the job and kv layers, measured by
// replaying one spec outside the engines.
type replay struct {
	seqS, collectS, sortS, mergeS float64
	records, pairsSorted, spills  int
}

func (r *replay) add(o replay) {
	r.seqS += o.seqS
	r.collectS += o.collectS
	r.sortS += o.sortS
	r.mergeS += o.mergeS
	r.records += o.records
	r.pairsSorted += o.pairsSorted
	r.spills += o.spills
}

// replayJob times job.RunSequential on the spec, then replays its data
// plane through the kv functions the way the MapReduce engine drives
// them: one PartitionCollector per input block with the map-side sort
// buffer (collect, with its spills), Finish (final sort and run merge),
// and a reduce-side MergeRuns + GroupReduce per partition.
func replayJob(rec *recorder, parent int, spec job.Spec) (replay, error) {
	var r replay
	var err error
	r.seqS = rec.call(parent, "job.RunSequential", "job", "replay", func() {
		_, err = job.RunSequential(spec)
	})
	if err != nil {
		return r, err
	}
	spec.Normalize()
	scale := spec.FS.Config().Scale
	buf := int(mr.DefaultConfig().SortBufferBytes / scale)
	runs := make([][][]kv.Pair, spec.Reducers)
	id := rec.begin(parent, "kv.replay", "kv", "replay")
	for _, blk := range spec.Input.Blocks {
		recs, _, err := job.Records(spec.InputFormat, blk.Data)
		if err != nil {
			return r, err
		}
		r.records += len(recs)
		coll := kv.NewPartitionCollector(spec.Reducers, buf, spec.Combine, spec.Part)
		emit := func(k, v []byte) {
			r.pairsSorted++
			coll.Emit(k, v)
		}
		start := time.Now()
		for _, rc := range recs {
			spec.Map(rc.Key, rc.Value, emit)
		}
		r.collectS += time.Since(start).Seconds()
		start = time.Now()
		parts, _, _ := coll.Finish()
		r.sortS += time.Since(start).Seconds()
		r.spills += coll.Spills()
		for pi := range parts {
			runs[pi] = append(runs[pi], parts[pi])
		}
	}
	start := time.Now()
	for _, pr := range runs {
		spec.GroupReduce(kv.MergeRuns(pr))
	}
	r.mergeS = time.Since(start).Seconds()
	rec.end(id)
	return r, nil
}
