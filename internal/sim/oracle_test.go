package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The rescan allocators below are the originals that PSResource and
// Fabric replaced: every flow event advances every flow at its current
// rate and recomputes every rate from scratch. They are O(F) to
// O(F log F) per event but trivially auditable, so they serve as the
// oracle the randomized differential tests pin the production allocators
// to (1e-6 relative on every completion time and traffic integral).

// refFlow is one oracle flow; Src/Dst are used by refFabric only.
type refFlow struct {
	Src, Dst  int
	remaining float64
	rate      float64
	onDone    func()
}

// refPS is the rescan processor-sharing oracle for PSResource.
type refPS struct {
	eng             *Engine
	capacity        float64
	perFlowCap      float64
	ThrashAllowance int
	ThrashAlpha     float64

	flows        []*refFlow // start order
	last         float64
	timer        *Timer
	busyIntegral float64
}

func newRefPS(eng *Engine, capacity, perFlowCap float64) *refPS {
	return &refPS{eng: eng, capacity: capacity, perFlowCap: perFlowCap}
}

func (r *refPS) Start(amount float64, onDone func()) {
	if amount <= workEpsilon {
		if onDone != nil {
			r.eng.Post(0, onDone)
		}
		return
	}
	r.advance()
	r.flows = append(r.flows, &refFlow{remaining: amount, onDone: onDone})
	r.reallocate()
}

func (r *refPS) Rescale(factor float64) {
	r.advance()
	r.capacity *= factor
	r.perFlowCap *= factor
	r.reallocate()
}

func (r *refPS) BusyIntegral() float64 {
	r.advance()
	return r.busyIntegral
}

// advance applies elapsed time to all flows at their current rates.
func (r *refPS) advance() {
	now := r.eng.now
	dt := now - r.last
	r.last = now
	if dt <= 0 || len(r.flows) == 0 {
		return
	}
	used := 0.0
	for _, f := range r.flows {
		f.remaining -= f.rate * dt
		used += f.rate
	}
	r.busyIntegral += used * dt
}

// reallocate fires finished flows in start order, recomputes the fair
// share and schedules the next completion.
func (r *refPS) reallocate() {
	if r.timer != nil {
		r.timer.Cancel()
		r.timer = nil
	}
	kept := r.flows[:0]
	for _, f := range r.flows {
		if flowDone(f.remaining, f.rate) {
			if f.onDone != nil {
				r.eng.Schedule(0, f.onDone)
			}
		} else {
			kept = append(kept, f)
		}
	}
	r.flows = kept
	if len(r.flows) == 0 {
		return
	}
	effCap := r.capacity
	if r.ThrashAlpha > 0 {
		if over := len(r.flows) - r.ThrashAllowance; over > 0 {
			effCap = r.capacity / (1 + r.ThrashAlpha*float64(over))
		}
	}
	rate := math.Min(r.perFlowCap, effCap/float64(len(r.flows)))
	next := math.Inf(1)
	for _, f := range r.flows {
		f.rate = rate
		next = math.Min(next, f.remaining/rate)
	}
	r.timer = r.eng.Schedule(next, func() {
		r.advance()
		r.reallocate()
	})
}

// refFabric is the rescan max-min oracle for Fabric: a global
// progressive filling over every link at every flow event.
type refFabric struct {
	eng        *Engine
	nodes      int
	linkBW     float64
	loopbackBW float64

	flows      []*refFlow // start order
	last       float64
	timer      *Timer
	rxIntegral []float64
	txIntegral []float64
}

func newRefFabric(eng *Engine, n int, linkBW float64) *refFabric {
	return &refFabric{eng: eng, nodes: n, linkBW: linkBW, loopbackBW: 40 * linkBW,
		rxIntegral: make([]float64, n), txIntegral: make([]float64, n)}
}

func (fb *refFabric) StartFlow(src, dst int, bytes float64, onDone func()) {
	if bytes <= workEpsilon {
		if onDone != nil {
			fb.eng.Post(0, onDone)
		}
		return
	}
	fb.advance()
	fb.flows = append(fb.flows, &refFlow{Src: src, Dst: dst, remaining: bytes, onDone: onDone})
	fb.reallocate()
}

func (fb *refFabric) RxIntegral(i int) float64 {
	fb.advance()
	return fb.rxIntegral[i]
}

func (fb *refFabric) TxIntegral(i int) float64 {
	fb.advance()
	return fb.txIntegral[i]
}

// advance applies elapsed time to all flows.
func (fb *refFabric) advance() {
	now := fb.eng.now
	dt := now - fb.last
	fb.last = now
	if dt <= 0 || len(fb.flows) == 0 {
		return
	}
	for _, f := range fb.flows {
		f.remaining -= f.rate * dt
		if f.Src != f.Dst {
			fb.txIntegral[f.Src] += f.rate * dt
			fb.rxIntegral[f.Dst] += f.rate * dt
		}
	}
}

// reallocate computes progressive-filling max-min fair rates. Each network
// flow consumes capacity on two links: egress(src) and ingress(dst).
// Loopback flows get fixed loopback bandwidth.
func (fb *refFabric) reallocate() {
	if fb.timer != nil {
		fb.timer.Cancel()
		fb.timer = nil
	}
	var finished []*refFlow
	kept := fb.flows[:0]
	for _, f := range fb.flows {
		if flowDone(f.remaining, f.rate) {
			finished = append(finished, f)
		} else {
			kept = append(kept, f)
		}
	}
	fb.flows = kept
	byEndpoints := func(s []*refFlow) func(i, j int) bool {
		return func(i, j int) bool {
			if s[i].Src != s[j].Src {
				return s[i].Src < s[j].Src
			}
			return s[i].Dst < s[j].Dst
		}
	}
	// Deterministic callback order: (Src, Dst), ties in start order.
	sort.SliceStable(finished, byEndpoints(finished))
	for _, f := range finished {
		if f.onDone != nil {
			fb.eng.Schedule(0, f.onDone)
		}
	}
	if len(fb.flows) == 0 {
		return
	}

	// Progressive filling. Links are indexed: egress i -> i, ingress i -> nodes+i.
	type linkState struct {
		cap   float64
		count int
	}
	links := make([]linkState, 2*fb.nodes)
	for i := range links {
		links[i].cap = fb.linkBW
	}
	var netFlows []*refFlow
	for _, f := range fb.flows {
		if f.Src == f.Dst {
			f.rate = fb.loopbackBW
			continue
		}
		f.rate = -1 // unassigned
		links[f.Src].count++
		links[fb.nodes+f.Dst].count++
		netFlows = append(netFlows, f)
	}
	sort.SliceStable(netFlows, byEndpoints(netFlows))
	unassigned := len(netFlows)
	for unassigned > 0 {
		// The bottleneck link: smallest fair share among links with
		// unassigned flows.
		bottleneck := -1
		best := math.Inf(1)
		for li := range links {
			if links[li].count == 0 {
				continue
			}
			if share := links[li].cap / float64(links[li].count); share < best {
				best = share
				bottleneck = li
			}
		}
		if bottleneck < 0 {
			break
		}
		// Fix every unassigned flow crossing the bottleneck at the share.
		for _, f := range netFlows {
			if f.rate >= 0 {
				continue
			}
			eg, in := f.Src, fb.nodes+f.Dst
			if eg != bottleneck && in != bottleneck {
				continue
			}
			f.rate = best
			links[eg].cap -= best
			links[eg].count--
			links[in].cap -= best
			links[in].count--
			unassigned--
		}
		if links[bottleneck].cap < 0 {
			links[bottleneck].cap = 0
		}
	}

	next := math.Inf(1)
	for _, f := range fb.flows {
		if f.rate > 0 {
			next = math.Min(next, f.remaining/f.rate)
		}
	}
	if math.IsInf(next, 1) {
		return
	}
	fb.timer = fb.eng.Schedule(next, func() {
		fb.advance()
		fb.reallocate()
	})
}

// psUnderTest is the surface the PS scenario drives on either allocator.
type psUnderTest interface {
	Start(amount float64, onDone func())
	Rescale(factor float64)
	BusyIntegral() float64
}

// runPSScenario exercises one randomized processor-sharing workload on
// PSResource (or, with oracle set, on refPS) and returns every
// completion time, in completion order, followed by the busy integral.
func runPSScenario(seed int64, oracle bool) []float64 {
	rng := rand.New(rand.NewSource(seed))
	e := NewEngine()
	allowance, alpha := 0, 0.0
	if rng.Intn(2) == 0 {
		allowance, alpha = 3, 0.2
	}
	var r psUnderTest
	if oracle {
		ref := newRefPS(e, 100, 30)
		ref.ThrashAllowance, ref.ThrashAlpha = allowance, alpha
		r = ref
	} else {
		ps := NewPSResource(e, "res", 100, 30)
		ps.ThrashAllowance, ps.ThrashAlpha = allowance, alpha
		r = ps
	}
	var times []float64
	n := 5 + rng.Intn(40)
	for i := 0; i < n; i++ {
		delay := rng.Float64() * 5
		amount := 1 + rng.Float64()*500
		e.Schedule(delay, func() {
			r.Start(amount, func() { times = append(times, e.Now()) })
		})
	}
	if rng.Intn(3) == 0 {
		e.Schedule(2, func() { r.Rescale(0.5) })
		e.Schedule(4, func() { r.Rescale(2) })
	}
	if err := e.Run(); err != nil {
		panic(err)
	}
	return append(times, r.BusyIntegral())
}

// fabricUnderTest is the surface the fabric scenario drives on either
// allocator.
type fabricUnderTest interface {
	RxIntegral(i int) float64
	TxIntegral(i int) float64
}

// runFabricScenario exercises one randomized Fabric workload (or, with
// oracle set, the same workload on refFabric) and returns every
// completion time followed by each node's traffic integrals.
func runFabricScenario(seed int64, oracle bool) []float64 {
	rng := rand.New(rand.NewSource(seed))
	e := NewEngine()
	nodes := 3 + rng.Intn(8)
	var fb fabricUnderTest
	var start func(src, dst int, bytes float64, onDone func())
	if oracle {
		ref := newRefFabric(e, nodes, 100)
		fb, start = ref, ref.StartFlow
	} else {
		f := NewFabric(e, nodes, 100)
		fb = f
		start = func(src, dst int, bytes float64, onDone func()) { f.StartFlow(src, dst, bytes, onDone) }
	}
	var times []float64
	n := 5 + rng.Intn(50)
	for i := 0; i < n; i++ {
		delay := rng.Float64() * 5
		src, dst := rng.Intn(nodes), rng.Intn(nodes)
		bytes := 1 + rng.Float64()*800
		e.Schedule(delay, func() {
			start(src, dst, bytes, func() { times = append(times, e.Now()) })
		})
	}
	if err := e.Run(); err != nil {
		panic(err)
	}
	for i := 0; i < nodes; i++ {
		times = append(times, fb.RxIntegral(i), fb.TxIntegral(i))
	}
	return times
}

// assertMatchesOracle compares a production run against its oracle run.
func assertMatchesOracle(t *testing.T, seed int64, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("seed %d: %d vs %d values", seed, len(got), len(want))
	}
	for i := range got {
		if d := math.Abs(got[i] - want[i]); d > 1e-6*math.Max(1, math.Abs(want[i])) {
			t.Fatalf("seed %d value %d: allocator %.12g vs oracle %.12g", seed, i, got[i], want[i])
		}
	}
}

// TestFidelityDifferentialPS differences randomized PSResource schedules
// between the virtual-time allocator and the rescan oracle.
func TestFidelityDifferentialPS(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		assertMatchesOracle(t, seed, runPSScenario(seed, false), runPSScenario(seed, true))
	}
}

// TestFidelityDifferentialFabric differences randomized fabric schedules
// and traffic integrals between the incremental allocator and the rescan
// oracle.
func TestFidelityDifferentialFabric(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		assertMatchesOracle(t, seed, runFabricScenario(seed, false), runFabricScenario(seed, true))
	}
}

// TestFidelityDeterminism re-runs one contended scenario per allocator
// (production and oracle) and requires bit-identical results.
func TestFidelityDeterminism(t *testing.T) {
	for _, oracle := range []bool{false, true} {
		a, b := runFabricScenario(17, oracle), runFabricScenario(17, oracle)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("oracle=%v: nondeterministic fabric value %d: %v vs %v", oracle, i, a[i], b[i])
			}
		}
		pa, pb := runPSScenario(17, oracle), runPSScenario(17, oracle)
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("oracle=%v: nondeterministic PS value %d: %v vs %v", oracle, i, pa[i], pb[i])
			}
		}
	}
}
