package harness

import (
	"fmt"
	"os"
	"sort"

	"github.com/datampi/datampi-go/internal/bdb"
	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/trace"
)

// tracecheck runs Text Sort under the span recorder on all three engines
// and reports what the trace says determined each makespan: the
// critical-path category totals and the span-derived phase breakdown.
// It is the paper's Section 4.4 diagnosis as a computed artifact —
// communication dominates Hadoop's sort path, while DataMPI's O/A
// overlap keeps most of the shuffle off its path — and doubles as the CI
// smoke test for the tracing stack (with -trace it writes the Hadoop
// trace as Chrome trace-event JSON for Perfetto).

// runTracedSort runs one framework's Text Sort on a fresh rig with a
// recorder attached, returning the result and the finished trace.
func runTracedSort(fw Framework, nominalGB float64, rc RigConfig) (job.Result, *trace.Tracer) {
	rig := NewRig(fw, rc)
	tr := trace.New(trace.Config{})
	switch fw {
	case Hadoop:
		rig.MR.Tracer = tr
	case Spark:
		rig.RDD.Tracer = tr
	default:
		rig.DM.Tracer = tr
	}
	rig.FS.SetTracer(tr)
	reducers := rig.TasksPerNode * rig.Cluster.N()
	in := bdb.GenerateTextFile(rig.FS, "/bench/text", bdb.LDAWiki1W(), rc.Seed+1, nominalGB*cluster.GB)
	spec := bdb.TextSortSpec(rig.FS, in, "/bench/out", reducers)
	return rig.Engine.Run(spec), tr
}

// pathNetShare computes the critical path from the trace's job span and
// returns (segments, total attributed seconds, "net" seconds).
func pathNetShare(tr *trace.Tracer) ([]trace.Seg, float64, float64) {
	jobs := tr.JobSpans()
	if len(jobs) == 0 {
		return nil, 0, 0
	}
	segs := tr.CriticalPath(jobs[len(jobs)-1].ID)
	total := 0.0
	for _, s := range segs {
		total += s.Dur()
	}
	return segs, total, trace.CategorySeconds(segs, "net")
}

// fmtPhases renders a phase map as "name 12.3s" pairs in sorted order.
func fmtPhases(ph map[string]float64) string {
	keys := make([]string, 0, len(ph))
	for k := range ph {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := ""
	for i, k := range keys {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s %.1fs", k, ph[k])
	}
	return out
}

func init() {
	register(Experiment{
		ID:    "tracecheck",
		Title: "Trace check: Sort critical path and phase breakdown per engine (Section 4.4 diagnosis)",
		Run: func(opt Options) (*Report, error) {
			gb := 8.0
			if opt.Quick {
				gb = 2
			}
			rep := &Report{ID: "tracecheck", Title: "Sort critical path",
				Columns: []string{"Framework", "Elapsed(s)", "Spans", "PathSegs", "Net(s)", "NetShare", "Phases"}}
			netShare := map[Framework]float64{}
			for _, fw := range []Framework{Hadoop, Spark, DataMPI} {
				rc := RigConfig{Scale: opt.scaleOr(8192), Seed: opt.seedOr(1)}
				res, tr := runTracedSort(fw, gb, rc)
				if res.Err != nil {
					rep.Rows = append(rep.Rows, []string{fw.String(), resultCell(res), "-", "-", "-", "-", "-"})
					continue
				}
				segs, total, net := pathNetShare(tr)
				share := 0.0
				if total > 0 {
					share = net / total
				}
				netShare[fw] = share
				rep.Rows = append(rep.Rows, []string{
					fw.String(), fmtSecs(res.Elapsed), fmt.Sprintf("%d", tr.Len()),
					fmt.Sprintf("%d", len(segs)), fmt.Sprintf("%.1f", net), fmtPct(share),
					fmtPhases(res.Phases)})
				if fw == Hadoop && opt.TracePath != "" {
					f, err := os.Create(opt.TracePath)
					if err != nil {
						return nil, fmt.Errorf("tracecheck: %w", err)
					}
					if err := tr.WriteChrome(f); err != nil {
						f.Close()
						return nil, fmt.Errorf("tracecheck: write trace: %w", err)
					}
					if err := f.Close(); err != nil {
						return nil, fmt.Errorf("tracecheck: close trace: %w", err)
					}
					rep.Notes = append(rep.Notes, "wrote Hadoop sort trace to "+opt.TracePath+" (load in ui.perfetto.dev)")
				}
			}
			if h, d := netShare[Hadoop], netShare[DataMPI]; h > 0 {
				rep.Notes = append(rep.Notes, fmt.Sprintf(
					"communication on the critical path: Hadoop %.0f%% vs DataMPI %.0f%% — the paper's overlap argument as a computed output",
					h*100, d*100))
			}
			return rep, nil
		},
	})
}
