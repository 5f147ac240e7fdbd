package sched

import (
	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/metrics"
	"github.com/datampi/datampi-go/internal/trace"
	"github.com/datampi/datampi-go/internal/transport"
)

// Runtime is the job frame every engine embeds: the testbed and
// filesystem it runs on, its communication model, the optional profiler
// and tracer, and the holds concurrent jobs share. The first active job
// charges the engine's per-node daemon residency and starts the
// profiler; the last one to end frees the residency and stops sampling,
// so one job completing cannot truncate another's profile.
type Runtime struct {
	C    *cluster.Cluster
	FS   *dfs.FS
	Prof *metrics.Profiler // optional resource profiler
	// Tracer records job/phase/fetch spans for solo runs; queue
	// submissions inherit the tracker's tracer instead.
	Tracer *trace.Tracer

	tp        *transport.Transport
	jobs      int               // active jobs holding the frame
	daemonMem float64           // per-node residency latched by the first job
	prof      *metrics.Profiler // profiler started by the first job
}

// NewRuntime builds the frame for an engine over fs whose shuffle and
// message bytes go through a transport on the staged profile prof.
func NewRuntime(fs *dfs.FS, prof transport.Profile) Runtime {
	return Runtime{C: fs.Cluster(), FS: fs, tp: transport.New(fs.Cluster(), prof)}
}

// Cluster implements Engine.
func (rt *Runtime) Cluster() *cluster.Cluster { return rt.C }

// AttachProfiler wires a resource profiler into the engine.
func (rt *Runtime) AttachProfiler(p *metrics.Profiler) { rt.Prof = p }

// Transport exposes the engine's communication model: every shuffle
// byte goes through it, on the profile's fluid form until the scenario
// WithTransport knob switches staging on.
func (rt *Runtime) Transport() *transport.Transport { return rt.tp }

// Scale returns nominal bytes per actual byte of the filesystem.
func (rt *Runtime) Scale() float64 { return rt.FS.Config().Scale }

// Job is one running job's frame: its start time, the tracer it runs
// under and its job span (nil when tracing is off).
type Job struct {
	rt    *Runtime
	tr    *trace.Tracer
	Start float64
	Span  *trace.Span
}

// Begin opens a job: it takes the daemon residency (daemonMem bytes per
// node) and the profiler hold, then opens the job span "job:"+name under
// ctl's tracer (rt.Tracer for a solo run). Every Begin is paired with one
// Job.End, or with RunSolo's cleanup when the simulation deadlocks.
func (rt *Runtime) Begin(ctl *JobControl, name, engine string, daemonMem float64) *Job {
	eng := rt.C.Eng
	if rt.jobs == 0 {
		rt.daemonMem = daemonMem
		for i := 0; i < rt.C.N(); i++ {
			rt.C.Node(i).Mem.MustAlloc(daemonMem)
		}
		if rt.prof = rt.Prof; rt.prof != nil {
			rt.prof.WaitIOFunc = func(node int) int {
				// Threads blocked on disk or shuffle I/O: the CPU wait-I/O
				// share of paper Figure 4, from the kernel's O(1) counters.
				return eng.BlockedOn(node, "disk", "shuffle-io")
			}
			rt.prof.Start()
		}
	}
	rt.jobs++
	j := &Job{rt: rt, tr: ctl.Tracer(rt.Tracer), Start: eng.Now()}
	rt.tp.SetTracer(j.tr)
	j.Span = j.tr.Begin("job:"+name, "job", 0, trace.TidDriver, j.Start).Annotate("engine", engine)
	return j
}

// End closes the job at end. Phase i runs from the previous boundary
// (the job start for the first) to ends[i] and is recorded as a phase
// span named names[i]; End returns the phase durations and releases the
// holds Begin took.
func (j *Job) End(end float64, names []string, ends []float64) []float64 {
	durs := make([]float64, len(ends))
	prev := j.Start
	for i, t := range ends {
		durs[i] = t - prev
		j.tr.BeginChild(j.Span, names[i], "phase", 0, trace.TidDriver, prev).EndAt(t)
		prev = t
	}
	j.Span.EndAt(end)
	j.rt.release()
	return durs
}

func (rt *Runtime) release() {
	if rt.jobs <= 0 {
		panic("sched: Runtime release without a matching Begin")
	}
	rt.jobs--
	if rt.jobs > 0 {
		return
	}
	for i := 0; i < rt.C.N(); i++ {
		rt.C.Node(i).Mem.Free(rt.daemonMem)
	}
	if rt.prof != nil {
		rt.prof.Stop()
		rt.prof = nil
	}
}

// RunSolo runs one job exclusively: submit admits it under a Solo
// control and calls done when its driver completes, and RunSolo then
// drives the simulation until it drains. If the simulation fails before
// the driver completed (a deadlock), the job's holds are released so the
// engine stays reusable. It returns the simulation's error.
func (rt *Runtime) RunSolo(submit func(ctl *JobControl, done func())) error {
	eng := rt.C.Eng
	completed := false
	submit(Solo(eng, rt.C.N()), func() { completed = true })
	err := eng.Run()
	if err != nil && !completed {
		rt.release()
	}
	return err
}

// JVMOverhead returns the background JVM CPU charged alongside a task's
// cpuSec on node: gcFactor of it, plus a GC-storm term scaled by
// pressureGC once the node's memory utilization exceeds 70%.
func (rt *Runtime) JVMOverhead(node int, cpuSec, gcFactor, pressureGC float64) float64 {
	gc := gcFactor * cpuSec
	if press := rt.C.Node(node).Mem.Pressure(); press > 0.7 {
		gc += pressureGC * (press - 0.7) / 0.3 * cpuSec
	}
	return gc
}
