package sched

import (
	"fmt"

	"github.com/datampi/datampi-go/internal/sim"
)

// SlotPool is a set of per-node task slots in simulated time. Within one
// job, waiters are served FIFO, exactly like the per-engine semaphores the
// pool replaces; across jobs the pool's policy picks which waiting job a
// freed slot goes to. A freed slot is assigned to the chosen waiter before
// it wakes, so a granted slot can never be stolen by a newcomer.
//
// Acquire is kill-safe: a waiter cancelled while queued removes itself on
// its way out, and one cancelled between grant and wake returns the slot,
// so speculative-attempt cancellation and preemption never leak slots.
//
// Dispatch is indexed so every operation is bounded by the jobs that
// currently hold or want slots (the active set), never by how many jobs
// the pool has ever served: waiters queue FIFO in per-(node, job) groups,
// each node keeps a min-heap over its groups ordered by the grant
// priority, and per-job demand counters feed an O(1) fair share. A grant
// is O(log groups) plus a heap fix per node the job waits on; job state
// is deleted outright when its demand returns to zero, so a long trace
// leaves nothing behind. The heap's priority is recomputed fresh on every
// comparison from the live held counts (with heap re-fixes at each count
// change), which keeps grant order bit-identical to the linear scan this
// replaced: both select the minimum of the same total order (fair share,
// job seq, waiter seq).
type SlotPool struct {
	policy  Policy
	perNode int // current target width (slots per node)
	base    int // width the pool was created with (PoolSet mismatch check)
	free    []int
	nodes   []nodeWaiters
	info    map[*JobHandle]*handleInfo
	// nDemand/wSum track the jobs currently holding or wanting slots and
	// their summed weights — FairShare's denominator, maintained
	// incrementally on zero-crossings of each job's demand. wSum resets to
	// an exact 0 whenever the active set empties, so no floating-point
	// residue survives across trace generations.
	nDemand int
	wSum    float64
	// debt counts slots Shrink retired while tasks were still running on
	// them: each Release absorbs one unit of debt instead of granting the
	// slot, draining the pool to its new width without killing anything.
	debt    []int
	arrival int64
}

type poolWaiter struct {
	p       *sim.Proc
	h       *JobHandle
	seq     int64   // arrival order, kept across grants for FIFO-within-job
	at      float64 // simulated enqueue time, for starvation detection
	granted bool    // slot assigned, wake pending
}

// handleGroup is one job's FIFO of waiters on one node, plus the group's
// position in the node's grant heap. The head waiter (ws[pop]) carries the
// group's tie-break key and its starvation age: within a job waiters are
// strictly FIFO, so the head is always the oldest and lowest-seq waiter.
type handleGroup struct {
	h    *JobHandle
	node int
	ws   []*poolWaiter
	pop  int // head index; grants advance it, compacted amortized
	hix  int // index in the node's grant heap
}

// handleInfo is one job's live accounting in the pool, created when the
// job first holds or wants a slot and deleted when both counts return to
// zero.
type handleInfo struct {
	held    int
	waiting int
	groups  []*handleGroup // nodes where the job currently has waiters
}

// nodeWaiters indexes one node's waiting groups: a lookup by job for
// enqueue and a min-heap ordered by grant priority for dispatch.
type nodeWaiters struct {
	byHandle map[*JobHandle]*handleGroup
	heap     []*handleGroup
}

// NewSlotPool creates a pool with perNode slots on each of nodes nodes.
func NewSlotPool(policy Policy, nodes, perNode int) *SlotPool {
	if nodes <= 0 || perNode <= 0 {
		panic("sched: SlotPool needs at least one node and one slot per node")
	}
	return &SlotPool{
		policy:  policy,
		perNode: perNode,
		base:    perNode,
		free:    newFilled(nodes, perNode),
		nodes:   make([]nodeWaiters, nodes),
		info:    make(map[*JobHandle]*handleInfo),
		debt:    make([]int, nodes),
	}
}

func newFilled(n, v int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// PerNode returns the configured slots per node.
func (sp *SlotPool) PerNode() int { return sp.perNode }

// Nodes returns the number of nodes the pool spans.
func (sp *SlotPool) Nodes() int { return len(sp.free) }

// Free returns the currently free slots on node.
func (sp *SlotPool) Free(node int) int { return sp.free[node] }

// Held returns how many of the pool's slots h currently holds.
func (sp *SlotPool) Held(h *JobHandle) int {
	hi := sp.info[h]
	if hi == nil {
		return 0
	}
	return hi.held
}

// Policy returns the pool's grant-arbitration policy.
func (sp *SlotPool) Policy() Policy { return sp.policy }

// infoFor returns h's live accounting, creating it on first demand.
func (sp *SlotPool) infoFor(h *JobHandle) *handleInfo {
	hi := sp.info[h]
	if hi == nil {
		hi = &handleInfo{}
		sp.info[h] = hi
	}
	return hi
}

// demandDelta settles the active-set counters after one of h's demand
// components changed; before is held+waiting prior to the change. On the
// fall to zero h's accounting is deleted — the pool forgets settled jobs.
func (sp *SlotPool) demandDelta(h *JobHandle, hi *handleInfo, before int) {
	after := hi.held + hi.waiting
	switch {
	case before == 0 && after > 0:
		sp.nDemand++
		sp.wSum += h.weight
	case before > 0 && after == 0:
		sp.nDemand--
		if sp.nDemand == 0 {
			sp.wSum = 0
		} else {
			sp.wSum -= h.weight
		}
		delete(sp.info, h)
	}
}

// refix restores heap order for every group of a job whose held count
// changed (held is the Fair priority's numerator; FIFO keys are static).
func (sp *SlotPool) refix(hi *handleInfo) {
	if sp.policy != Fair {
		return
	}
	for _, g := range hi.groups {
		sp.heapFix(&sp.nodes[g.node], g.hix)
	}
}

// Acquire takes one slot on node for job h, parking the proc until the
// pool grants one under its policy. reason labels the blocked state for
// metrics attribution.
func (sp *SlotPool) Acquire(p *sim.Proc, node int, h *JobHandle, reason string) {
	// Invariant: a non-empty queue implies no free slots (grant drains the
	// queue whenever a slot frees), so the fast path cannot overtake a
	// waiter.
	if sp.free[node] > 0 {
		sp.free[node]--
		hi := sp.infoFor(h)
		before := hi.held + hi.waiting
		hi.held++
		sp.demandDelta(h, hi, before)
		sp.refix(hi)
		return
	}
	w := &poolWaiter{p: p, h: h, seq: sp.arrival, at: p.Engine().Now()}
	sp.arrival++
	hi := sp.infoFor(h)
	before := hi.held + hi.waiting
	hi.waiting++
	sp.demandDelta(h, hi, before)
	nw := &sp.nodes[node]
	g := nw.byHandle[h]
	if g == nil {
		g = &handleGroup{h: h, node: node, hix: -1}
		if nw.byHandle == nil {
			nw.byHandle = make(map[*JobHandle]*handleGroup)
		}
		nw.byHandle[h] = g
		hi.groups = append(hi.groups, g)
		g.ws = append(g.ws, w)
		sp.heapPush(nw, g)
	} else {
		g.ws = append(g.ws, w)
	}
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		// The waiter is unwinding (cancelled attempt): undo its pool state
		// before the panic continues. A granted-but-not-woken waiter hands
		// its slot back; a still-queued one just leaves its group.
		if w.granted {
			hi := sp.info[h]
			before := hi.held + hi.waiting
			hi.held--
			sp.demandDelta(h, hi, before)
			sp.refix(hi)
			sp.free[node]++
			sp.grant(node)
		} else {
			sp.removeWaiter(node, h, w)
		}
		panic(r)
	}()
	p.Park(reason)
}

// removeWaiter takes a still-queued waiter out of its group (cancelled
// while waiting), dropping the group when it drains.
func (sp *SlotPool) removeWaiter(node int, h *JobHandle, w *poolWaiter) {
	nw := &sp.nodes[node]
	g := nw.byHandle[h]
	wasHead := false
	for i := g.pop; i < len(g.ws); i++ {
		if g.ws[i] == w {
			wasHead = i == g.pop
			copy(g.ws[i:], g.ws[i+1:])
			g.ws[len(g.ws)-1] = nil
			g.ws = g.ws[:len(g.ws)-1]
			break
		}
	}
	hi := sp.info[h]
	before := hi.held + hi.waiting
	hi.waiting--
	sp.demandDelta(h, hi, before)
	if g.pop >= len(g.ws) {
		sp.dropGroup(nw, g, hi)
	} else if wasHead {
		sp.heapFix(nw, g.hix) // new head carries a later seq
	}
}

// dropGroup removes a drained group from its node's heap and lookup and
// from its job's group list. hi may already be deleted from sp.info (the
// job's demand hit zero); the local pointer still carries its group list.
func (sp *SlotPool) dropGroup(nw *nodeWaiters, g *handleGroup, hi *handleInfo) {
	sp.heapRemove(nw, g.hix)
	delete(nw.byHandle, g.h)
	for i, og := range hi.groups {
		if og == g {
			last := len(hi.groups) - 1
			hi.groups[i] = hi.groups[last]
			hi.groups[last] = nil
			hi.groups = hi.groups[:last]
			break
		}
	}
	g.ws, g.pop, g.hix = nil, 0, -1
}

// Release returns one of h's slots on node, granting it to the best
// waiter, if any, under the pool's policy. When the node owes shrink debt
// the slot is retired instead of granted.
func (sp *SlotPool) Release(node int, h *JobHandle) {
	hi := sp.info[h]
	if hi == nil || hi.held <= 0 {
		panic("sched: Release without matching Acquire")
	}
	before := hi.held + hi.waiting
	hi.held--
	sp.demandDelta(h, hi, before)
	sp.refix(hi)
	if sp.debt[node] > 0 {
		sp.debt[node]--
		return
	}
	sp.free[node]++
	sp.grant(node)
}

// grant hands out free slots on node to the best waiters under the pool's
// policy until slots or waiters run out (after Release exactly one slot is
// free; Grow can free several at once). Each grant pops the head of the
// heap-minimum group — the same waiter the replaced linear scan selected —
// then re-fixes the group for its new head and the job's other groups for
// its new held count.
func (sp *SlotPool) grant(node int) {
	nw := &sp.nodes[node]
	for sp.free[node] > 0 && len(nw.heap) > 0 {
		g := nw.heap[0]
		w := g.ws[g.pop]
		g.ws[g.pop] = nil
		g.pop++
		hi := sp.info[g.h]
		hi.waiting--
		hi.held++ // net demand unchanged: no zero-crossing possible here
		sp.free[node]--
		w.granted = true
		if g.pop >= len(g.ws) {
			sp.dropGroup(nw, g, hi)
		} else {
			g.compact()
			sp.heapFix(nw, g.hix)
		}
		sp.refix(hi)
		w.p.Unpark()
	}
}

// compact reclaims the popped prefix of the group's waiter slice once it
// dominates, keeping per-group memory proportional to queued waiters.
func (g *handleGroup) compact() {
	if g.pop < 32 || g.pop*2 < len(g.ws) {
		return
	}
	n := copy(g.ws, g.ws[g.pop:])
	for i := n; i < len(g.ws); i++ {
		g.ws[i] = nil
	}
	g.ws = g.ws[:n]
	g.pop = 0
}

// gLess orders two waiting groups on one node by grant priority: weighted
// held share under Fair (computed fresh from the live counts), then job
// admission seq, then head waiter seq. Head seqs are globally unique, so
// the order is total and the heap minimum is exactly the waiter the
// replaced full scan picked.
func (sp *SlotPool) gLess(a, b *handleGroup) bool {
	if sp.policy == Fair {
		sa := float64(sp.info[a.h].held) / a.h.weight
		sb := float64(sp.info[b.h].held) / b.h.weight
		if sa != sb {
			return sa < sb
		}
	}
	if a.h.seq != b.h.seq {
		return a.h.seq < b.h.seq
	}
	return a.ws[a.pop].seq < b.ws[b.pop].seq
}

// heapPush/heapRemove/heapFix maintain a node's grant heap (hand-rolled
// over the group slice, with each group tracking its own index so key
// changes re-fix in O(log n) without search).
func (sp *SlotPool) heapPush(nw *nodeWaiters, g *handleGroup) {
	g.hix = len(nw.heap)
	nw.heap = append(nw.heap, g)
	sp.siftUp(nw, g.hix)
}

func (sp *SlotPool) heapRemove(nw *nodeWaiters, i int) {
	last := len(nw.heap) - 1
	nw.heap[i].hix = -1
	if i != last {
		nw.heap[i] = nw.heap[last]
		nw.heap[i].hix = i
	}
	nw.heap[last] = nil
	nw.heap = nw.heap[:last]
	if i < last {
		sp.heapFix(nw, i)
	}
}

func (sp *SlotPool) heapFix(nw *nodeWaiters, i int) {
	if !sp.siftUp(nw, i) {
		sp.siftDown(nw, i)
	}
}

func (sp *SlotPool) siftUp(nw *nodeWaiters, i int) bool {
	moved := false
	for i > 0 {
		parent := (i - 1) / 2
		if !sp.gLess(nw.heap[i], nw.heap[parent]) {
			break
		}
		nw.swap(i, parent)
		i = parent
		moved = true
	}
	return moved
}

func (sp *SlotPool) siftDown(nw *nodeWaiters, i int) {
	n := len(nw.heap)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && sp.gLess(nw.heap[right], nw.heap[left]) {
			least = right
		}
		if !sp.gLess(nw.heap[least], nw.heap[i]) {
			return
		}
		nw.swap(i, least)
		i = least
	}
}

func (nw *nodeWaiters) swap(i, j int) {
	nw.heap[i], nw.heap[j] = nw.heap[j], nw.heap[i]
	nw.heap[i].hix = i
	nw.heap[j].hix = j
}

// Grow widens the pool to perNode slots on every node (a no-op if it is
// already at least that wide), granting the new slots to waiters. Growth
// first forgives any outstanding shrink debt — slots that were marked for
// retirement but whose tasks are still running simply stay in service.
// Engines whose slot layout depends on the job (DataMPI's A communicator)
// widen the shared pool rather than strand ranks.
func (sp *SlotPool) Grow(perNode int) {
	if perNode <= sp.perNode {
		return
	}
	delta := perNode - sp.perNode
	sp.perNode = perNode
	for node := range sp.free {
		add := delta
		if sp.debt[node] > 0 {
			forgiven := sp.debt[node]
			if forgiven > add {
				forgiven = add
			}
			sp.debt[node] -= forgiven
			add -= forgiven
		}
		if add > 0 {
			sp.free[node] += add
			sp.grant(node)
		}
	}
}

// Shrink narrows the pool to perNode slots on every node (a no-op if it is
// already at most that wide) — the elastic complement of Grow. Free slots
// are retired immediately; slots held by running tasks drain lazily, each
// Release retiring the slot instead of granting it until the node is back
// within its new width. No running task is ever killed by a shrink.
func (sp *SlotPool) Shrink(perNode int) {
	if perNode < 1 {
		perNode = 1
	}
	if perNode >= sp.perNode {
		return
	}
	delta := sp.perNode - perNode
	sp.perNode = perNode
	for node := range sp.free {
		take := delta
		if take > sp.free[node] {
			take = sp.free[node]
		}
		sp.free[node] -= take
		sp.debt[node] += delta - take
	}
}

// Debt returns the slots on node still awaiting lazy retirement after a
// Shrink (running tasks whose slots will not be re-granted).
func (sp *SlotPool) Debt(node int) int { return sp.debt[node] }

// FairShare returns h's weighted fair share of the pool's total slots,
// dividing among the jobs that currently hold or want slots. The
// denominator is maintained incrementally; with the integral weights the
// scheduler uses it is exactly the sum a fresh scan would compute.
func (sp *SlotPool) FairShare(h *JobHandle) float64 {
	total := float64(sp.Nodes() * sp.perNode)
	if sp.wSum == 0 {
		return total
	}
	return total * h.weight / sp.wSum
}

// Starved returns the earliest-admitted job that has had a waiter queued
// for at least patience while holding less than its weighted fair share,
// together with the node its oldest qualifying waiter queues on; (nil, -1)
// when no job starves. The preemption monitor kills for the returned node
// so the freed slot reaches the starved waiter. Only group heads need
// inspection: within a job waiters age and rank monotonically, and the
// share test is per-job, so a group's best candidate is always its head.
func (sp *SlotPool) Starved(now, patience float64) (*JobHandle, int) {
	var starved *JobHandle
	var starvedSeq int64
	node := -1
	for n := range sp.nodes {
		for _, g := range sp.nodes[n].heap {
			w := g.ws[g.pop]
			if now-w.at < patience {
				continue
			}
			if float64(sp.info[g.h].held)+1 > sp.FairShare(g.h)+1e-9 {
				continue
			}
			if starved == nil || g.h.seq < starved.seq ||
				(g.h == starved && w.seq < starvedSeq) {
				starved, starvedSeq, node = g.h, w.seq, n
			}
		}
	}
	return starved, node
}

// PoolSet lazily creates named slot pools shared by every job admitted to
// one queue. Engines name their pools by slot kind ("mr-map", "mr-reduce",
// "spark-worker", "dm-o", "dm-a"), so jobs of the same engine type contend
// for the same slots while different engine types contend only for the
// underlying simulated resources.
type PoolSet struct {
	nodes  int
	policy Policy
	pools  map[string]*SlotPool
}

// NewPoolSet creates an empty pool set for a cluster of nodes nodes.
func NewPoolSet(policy Policy, nodes int) *PoolSet {
	if nodes <= 0 {
		panic("sched: PoolSet needs at least one node")
	}
	return &PoolSet{nodes: nodes, policy: policy, pools: make(map[string]*SlotPool)}
}

// Pool returns the pool named kind, creating it with perNode slots per
// node on first use. A later caller asking for a different perNode is a
// bug — the sizes would silently diverge from what the caller configured —
// so the mismatch panics; engines whose per-job slot demand legitimately
// varies use PoolGrow instead. The check compares against the pool's base
// (creation) width, so scenario-timeline Grow/Shrink events do not make a
// later job of the same engine type trip it.
func (ps *PoolSet) Pool(kind string, perNode int) *SlotPool {
	if sp, ok := ps.pools[kind]; ok {
		if sp.base != perNode {
			panic(fmt.Sprintf(
				"sched: pool %q already sized at %d slots/node, caller wants %d; use PoolGrow for elastic kinds",
				kind, sp.base, perNode))
		}
		return sp
	}
	sp := NewSlotPool(ps.policy, ps.nodes, perNode)
	ps.pools[kind] = sp
	return sp
}

// PoolGrow returns the pool named kind widened to at least perNode slots
// per node, creating it on first use. Jobs with a narrower demand share
// the wider pool.
func (ps *PoolSet) PoolGrow(kind string, perNode int) *SlotPool {
	sp, ok := ps.pools[kind]
	if !ok {
		return ps.Pool(kind, perNode)
	}
	sp.Grow(perNode)
	return sp
}

// Get returns the pool named kind if it exists.
func (ps *PoolSet) Get(kind string) (*SlotPool, bool) {
	sp, ok := ps.pools[kind]
	return sp, ok
}
