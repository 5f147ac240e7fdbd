package sim

import (
	"container/heap"
	"math"
	"sort"
)

// Incremental max-min fabric: the Fabric allocator.
//
// Max-min fair allocations decompose over connected components of the
// flow-link incidence graph: a flow arrival or completion can only change
// rates within the component reachable from the links it touches. The
// fabric therefore keeps a per-link registry of flows (in maintained
// (Src, Dst, seq) sorted order) and, on each flow event, refills only the
// dirty component instead of re-sorting and re-filling the whole fabric.
// Within the component the progressive filling visits links and flows in
// the same order a whole-fabric refill would, so the assigned rates match
// the per-event rescan allocator (kept as a test oracle in
// oracle_test.go) bit-for-bit.
//
// Completions come off a min-heap keyed by predicted absolute finish
// time; flows whose rate did not change in a refill keep their heap entry
// untouched and their remaining bytes are settled lazily, only when the
// rate actually changes. Per-node RX/TX rates are running sums (O(1) for
// the profiler) and the per-node traffic integrals settle lazily from
// them.

// flowHeap orders in-flight flows by predicted finish, start order on
// ties, maintaining each flow's heap index for O(log F) Fix on reroute.
type flowHeap []*Flow

func (h flowHeap) Len() int { return len(h) }
func (h flowHeap) Less(i, j int) bool {
	if h[i].finish != h[j].finish {
		return h[i].finish < h[j].finish
	}
	return h[i].seq < h[j].seq
}
func (h flowHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].hidx = i
	h[j].hidx = j
}
func (h *flowHeap) Push(x any) {
	f := x.(*Flow)
	f.hidx = len(*h)
	*h = append(*h, f)
}
func (h *flowHeap) Pop() any {
	old := *h
	n := len(old)
	f := old[n-1]
	old[n-1] = nil
	f.hidx = -1
	*h = old[:n-1]
	return f
}

// flowLess is the registry (and completion-callback) order.
func flowLess(a, b *Flow) bool {
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	if a.Dst != b.Dst {
		return a.Dst < b.Dst
	}
	return a.seq < b.seq
}

// insertFlow adds f to a registry kept in flowLess order.
func insertFlow(s []*Flow, f *Flow) []*Flow {
	i := sort.Search(len(s), func(k int) bool { return flowLess(f, s[k]) })
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = f
	return s
}

// removeFlow deletes f from a registry; (Src, Dst, seq) is unique, so the
// binary search lands exactly on f.
func removeFlow(s []*Flow, f *Flow) []*Flow {
	i := sort.Search(len(s), func(k int) bool { return !flowLess(s[k], f) })
	copy(s[i:], s[i+1:])
	s[len(s)-1] = nil
	return s[:len(s)-1]
}

// settleNode brings node i's traffic integrals up to now from its running
// rate sums. Must run before any of the node's flow rates change.
func (fb *Fabric) settleNode(i int) {
	now := fb.eng.now
	dt := now - fb.nodeLast[i]
	fb.nodeLast[i] = now
	if dt <= 0 {
		return
	}
	fb.rxIntegral[i] += fb.rxRate[i] * dt
	fb.txIntegral[i] += fb.txRate[i] * dt
}

// start admits a flow: complete anything that finished on the way
// here, register the newcomer, refill its component, rearm the timer.
func (fb *Fabric) start(f *Flow) {
	now := fb.eng.now
	f.seq = fb.seqCtr
	fb.seqCtr++
	f.settledAt = now
	f.hidx = -1
	dirty := fb.collect()
	if f.Src == f.Dst {
		f.loop = true
		f.rate = fb.loopbackBW
		f.finish = now + f.remaining/fb.loopbackBW
		heap.Push(&fb.cheap, f)
	} else {
		eg, in := f.Src, fb.nodes+f.Dst
		fb.links[eg].flows = insertFlow(fb.links[eg].flows, f)
		fb.links[in].flows = insertFlow(fb.links[in].flows, f)
		f.rate = 0
		f.finish = math.Inf(1)
		heap.Push(&fb.cheap, f)
		dirty = append(dirty, eg, in)
	}
	if len(dirty) > 0 {
		fb.refill(dirty)
	}
	fb.program()
}

// tick is the completion-timer body.
func (fb *Fabric) tick() {
	dirty := fb.collect()
	if len(dirty) > 0 {
		fb.refill(dirty)
	}
	fb.program()
}

// collect pops every finished flow off the completion heap, fires its
// callback in (Src, Dst), then start order, and
// returns the links those flows vacated.
func (fb *Fabric) collect() []int {
	fb.dirty = fb.dirty[:0]
	if len(fb.cheap) == 0 {
		return fb.dirty
	}
	now := fb.eng.now
	batch := fb.fbatch[:0]
	for len(fb.cheap) > 0 {
		f := fb.cheap[0]
		rem := f.remaining - f.rate*(now-f.settledAt)
		if !flowDone(rem, f.rate) && !(f.finish <= now) {
			break
		}
		heap.Pop(&fb.cheap)
		batch = append(batch, f)
	}
	fb.fbatch = batch[:0]
	if len(batch) == 0 {
		return fb.dirty
	}
	sort.Slice(batch, func(i, j int) bool { return flowLess(batch[i], batch[j]) })
	for _, f := range batch {
		if !f.loop {
			eg, in := f.Src, fb.nodes+f.Dst
			fb.links[eg].flows = removeFlow(fb.links[eg].flows, f)
			fb.links[in].flows = removeFlow(fb.links[in].flows, f)
			fb.settleNode(f.Src)
			fb.settleNode(f.Dst)
			fb.txRate[f.Src] -= f.rate
			fb.rxRate[f.Dst] -= f.rate
			fb.dirty = append(fb.dirty, eg, in)
		}
		if f.onDone != nil {
			fb.eng.Post(0, f.onDone)
		}
		// The flow is out of the registries and the heap and its callback
		// is queued by value; the object can serve the next transfer.
		f.onDone = nil
		fb.fpool = append(fb.fpool, f)
	}
	return fb.dirty
}

// refill recomputes max-min rates for the connected component of links
// reachable from the dirty set, leaving every other flow untouched. The
// progressive filling visits bottleneck links by smallest fair share
// (ties to the lowest link index) and flows within a bottleneck in
// (Src, Dst, seq) order, as a whole-fabric refill would.
func (fb *Fabric) refill(dirtyLinks []int) {
	fb.fillEpoch++
	ep := fb.fillEpoch

	// Flood the component over the flow-link incidence graph.
	comp := fb.comp[:0]
	stack := fb.stack[:0]
	for _, li := range dirtyLinks {
		if fb.links[li].mark != ep {
			fb.links[li].mark = ep
			stack = append(stack, li)
		}
	}
	for len(stack) > 0 {
		li := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		comp = append(comp, li)
		for _, f := range fb.links[li].flows {
			other := f.Src
			if li == f.Src {
				other = fb.nodes + f.Dst
			}
			if fb.links[other].mark != ep {
				fb.links[other].mark = ep
				stack = append(stack, other)
			}
		}
	}
	fb.comp, fb.stack = comp, stack[:0]
	sort.Ints(comp)

	unassigned := 0
	for _, li := range comp {
		l := &fb.links[li]
		l.cap = fb.linkBW
		l.count = len(l.flows)
		unassigned += l.count
	}
	unassigned /= 2 // every non-loop flow sits on exactly two component links

	now := fb.eng.now
	for unassigned > 0 {
		bottleneck, best := -1, math.Inf(1)
		for _, li := range comp {
			l := &fb.links[li]
			if l.count == 0 {
				continue
			}
			if share := l.cap / float64(l.count); share < best {
				best, bottleneck = share, li
			}
		}
		if bottleneck < 0 {
			break
		}
		for _, f := range fb.links[bottleneck].flows {
			if f.mark == ep {
				continue
			}
			f.mark = ep
			eg, in := f.Src, fb.nodes+f.Dst
			fb.links[eg].cap -= best
			fb.links[eg].count--
			fb.links[in].cap -= best
			fb.links[in].count--
			unassigned--
			fb.applyRate(f, best, now)
		}
		if fb.links[bottleneck].cap < 0 {
			fb.links[bottleneck].cap = 0
		}
	}

	// Refresh the touched nodes' running rate sums wholesale (bounding
	// float drift), settling their integrals at the old sums first.
	for _, li := range comp {
		node := li
		if li >= fb.nodes {
			node = li - fb.nodes
		}
		fb.settleNode(node)
	}
	for _, li := range comp {
		sum := 0.0
		for _, f := range fb.links[li].flows {
			sum += f.rate
		}
		if li < fb.nodes {
			fb.txRate[li] = sum
		} else {
			fb.rxRate[li-fb.nodes] = sum
		}
	}
}

// applyRate installs a flow's new rate, settling its remaining bytes at
// the old rate first and refreshing its heap position. Flows whose rate
// is unchanged are left completely alone — their heap entry stands.
func (fb *Fabric) applyRate(f *Flow, rate, now float64) {
	if rate == f.rate {
		return
	}
	if d := now - f.settledAt; d > 0 {
		f.remaining -= f.rate * d
	}
	f.settledAt = now
	f.rate = rate
	if rate > 0 {
		f.finish = now + f.remaining/rate
	} else {
		f.finish = math.Inf(1)
	}
	heap.Fix(&fb.cheap, f.hidx)
}

// program arms the completion timer for the earliest predicted
// finisher, reusing one Timer allocation for the fabric's lifetime.
func (fb *Fabric) program() {
	if fb.vtimer == nil {
		fb.vtimer = &Timer{eng: fb.eng, index: -1, fn: fb.tick}
	} else {
		fb.vtimer.Cancel()
	}
	if len(fb.cheap) == 0 {
		return
	}
	next := fb.cheap[0].finish
	if math.IsInf(next, 1) {
		return
	}
	fb.eng.rearm(fb.vtimer, next-fb.eng.now)
}
