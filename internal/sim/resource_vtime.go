package sim

import (
	"container/heap"
	"sort"
)

// Virtual-time processor sharing: the PSResource allocator.
//
// Under processor sharing every active flow receives service at the same
// rate, so instead of sweeping all flows on every event ("remaining -=
// rate*dt" for each), the resource keeps one virtual clock V that
// advances at the common per-flow rate and tags each flow at start with
// the virtual instant it finishes:
//
//	finishV = V(start) + remaining
//
// Flows live in a min-heap keyed by (finishV, seq). A flow arrival or
// completion is then O(log F): push/pop the heap and re-derive dV/dt from
// the flow count — nothing touches the other F-1 flows. Capacity changes
// (Rescale, thrash) only alter dV/dt; the heap keys stay valid. The
// per-flow cap binds uniformly, so a single clock expresses it exactly.
//
// The per-event rescan allocator this replaces survives as a test oracle
// (oracle_test.go); the randomized differential tests pin the two
// together.

// vtHeap orders flows by finish virtual time, start order on ties.
type vtHeap []*psFlow

func (h vtHeap) Len() int { return len(h) }
func (h vtHeap) Less(i, j int) bool {
	if h[i].finishV != h[j].finishV {
		return h[i].finishV < h[j].finishV
	}
	return h[i].seq < h[j].seq
}
func (h vtHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *vtHeap) Push(x any)   { *h = append(*h, x.(*psFlow)) }
func (h *vtHeap) Pop() any {
	old := *h
	n := len(old)
	f := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return f
}

// vtSettle advances the virtual clock and the busy integral to the
// current instant. O(1): no per-flow state is touched.
func (r *PSResource) vtSettle() {
	now := r.eng.now
	dt := now - r.last
	r.last = now
	if dt <= 0 || len(r.vheap) == 0 {
		return
	}
	r.vt += r.vrate * dt
	r.busyIntegral += r.vrate * float64(len(r.vheap)) * dt
}

// vtStart admits a new flow of amount units: settle, fire any flows that
// finished on the way here, then push and reprogram. O(log F).
func (r *PSResource) vtStart(amount float64, onDone func()) {
	r.vtSettle()
	r.vtCollect()
	var f *psFlow
	if n := len(r.fpool); n > 0 {
		f = r.fpool[n-1]
		r.fpool[n-1] = nil
		r.fpool = r.fpool[:n-1]
	} else {
		f = &psFlow{}
	}
	*f = psFlow{onDone: onDone, finishV: r.vt + amount, seq: r.seqCtr}
	r.seqCtr++
	heap.Push(&r.vheap, f)
	r.vtProgram()
}

// vtTick is the completion-timer body.
func (r *PSResource) vtTick() {
	r.vtSettle()
	r.vtCollect()
	r.vtProgram()
}

// vtCollect pops every flow the virtual clock has passed and schedules
// its completion callback, in start order. Flows qualify under the
// flowDone epsilon rule at the rate they were actually receiving.
func (r *PSResource) vtCollect() {
	if len(r.vheap) == 0 {
		return
	}
	batch := r.vbatch[:0]
	for len(r.vheap) > 0 {
		f := r.vheap[0]
		if !flowDone(f.finishV-r.vt, r.vrate) {
			break
		}
		heap.Pop(&r.vheap)
		batch = append(batch, f)
	}
	r.vbatch = batch[:0]
	if len(batch) == 0 {
		return
	}
	sort.Slice(batch, func(i, j int) bool { return batch[i].seq < batch[j].seq })
	for _, f := range batch {
		if f.onDone != nil {
			r.eng.Post(0, f.onDone)
		}
		// Out of the heap with the callback queued by value: the object
		// can serve the next Start/Use.
		f.onDone = nil
		r.fpool = append(r.fpool, f)
	}
	if len(r.vheap) == 0 {
		// An idle resource restarts clean.
		r.vrate = 0
	}
}

// vtProgram re-derives dV/dt for the current population — the fair share
// of the (thrash-derated) capacity, clamped to the per-flow cap — and
// arms the completion timer for the earliest finisher.
func (r *PSResource) vtProgram() {
	n := len(r.vheap)
	if n == 0 {
		if r.vtimer != nil {
			r.vtimer.Cancel()
		}
		return
	}
	effCap := r.capacity
	if r.ThrashAlpha > 0 {
		if over := n - r.ThrashAllowance; over > 0 {
			effCap = r.capacity / (1 + r.ThrashAlpha*float64(over))
		}
	}
	r.vrate = effCap / float64(n)
	if r.vrate > r.perFlowCap {
		r.vrate = r.perFlowCap
	}
	top := r.vheap[0]
	dt := (top.finishV - r.vt) / r.vrate
	if r.vtimer == nil {
		r.vtimer = &Timer{eng: r.eng, index: -1, fn: r.vtTick}
	} else {
		r.vtimer.Cancel()
	}
	r.eng.rearm(r.vtimer, dt)
}
