// Package mpi implements the message-passing substrate DataMPI extends:
// a World of ranks pinned to cluster nodes, eager point-to-point sends
// (blocking and nonblocking) carrying real payloads over the simulated
// fabric, and the collectives the DataMPI runtime uses (Barrier, Bcast,
// Gather, Allreduce-style reductions).
//
// The paper runs DataMPI over MVAPICH2; this package plays that role. It
// charges the simulated network for every byte moved, delivers payloads
// through per-rank mailboxes, and preserves MPI's per-pair message
// ordering.
package mpi

import (
	"fmt"

	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/sim"
	"github.com/datampi/datampi-go/internal/transport"
)

// AnySource matches any sender in Recv.
const AnySource = -1

// Message is a delivered point-to-point message.
type Message struct {
	From    int
	Tag     int
	Nominal float64 // nominal payload bytes charged to the network
	Payload any
}

// World is an MPI communicator: a set of ranks mapped onto cluster nodes.
type World struct {
	c      *cluster.Cluster
	nodeOf []int

	boxes   map[int][]*Message // per-receiver mailbox, arrival order
	conds   map[int]*sim.Cond
	barrier struct {
		waiting int
		gen     int
		cond    sim.Cond
	}

	// LatencySecs is the per-message software latency (MPI stack +
	// protocol), charged once per Send.
	LatencySecs float64

	// tp carries every send to the fabric: a zero-profile transport
	// (the bare fabric flow) until SetTransport installs an engine's.
	tp *transport.Transport
}

// NewWorld creates a world of len(nodeOf) ranks; nodeOf[r] is the cluster
// node hosting rank r.
func NewWorld(c *cluster.Cluster, nodeOf []int) *World {
	for _, n := range nodeOf {
		if n < 0 || n >= c.N() {
			panic(fmt.Sprintf("mpi: rank mapped to invalid node %d", n))
		}
	}
	return &World{
		c:           c,
		nodeOf:      append([]int(nil), nodeOf...),
		boxes:       make(map[int][]*Message),
		conds:       make(map[int]*sim.Cond),
		LatencySecs: 50e-6,
		tp:          transport.New(c, transport.Profile{}),
	}
}

// RoundRobinWorld creates a world with ranksPerNode ranks on each node,
// rank r on node r % N — how mpirun lays out processes with a hostfile.
func RoundRobinWorld(c *cluster.Cluster, ranksPerNode int) *World {
	nodeOf := make([]int, c.N()*ranksPerNode)
	for r := range nodeOf {
		nodeOf[r] = r % c.N()
	}
	return NewWorld(c, nodeOf)
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.nodeOf) }

// NodeOf returns the cluster node hosting rank r.
func (w *World) NodeOf(r int) int { return w.nodeOf[r] }

// Rebind re-homes rank r onto node — the recovery path for a rank process
// restarted on another machine after its node failed. Later sends to r
// charge the fabric toward the new node; messages already in flight keep
// the route chosen at send time (they were on the wire when the machine
// died) but deliver into r's mailbox as usual.
func (w *World) Rebind(r, node int) {
	if node < 0 || node >= w.c.N() {
		panic(fmt.Sprintf("mpi: Rebind rank %d to invalid node %d", r, node))
	}
	w.nodeOf[r] = node
}

// Flush discards rank r's queued messages: mailbox state lives in the
// rank process's memory, so a restarted rank starts empty and relies on
// the senders' replay to be fed again.
func (w *World) Flush(r int) { w.boxes[r] = nil }

func (w *World) cond(rank int) *sim.Cond {
	c, ok := w.conds[rank]
	if !ok {
		c = &sim.Cond{}
		w.conds[rank] = c
	}
	return c
}

// Isend transfers nominalBytes from rank from to rank to without blocking
// the caller; the message is delivered to the receiver's mailbox when the
// simulated transfer completes. onDone (optional) fires at completion.
func (w *World) Isend(from, to, tag int, nominalBytes float64, payload any, onDone func()) {
	if from < 0 || from >= len(w.nodeOf) {
		panic(fmt.Sprintf("mpi: Isend with invalid ranks %d->%d", from, to))
	}
	w.IsendFrom(w.nodeOf[from], from, to, tag, nominalBytes, payload, onDone)
}

// SetTransport replaces the world's transport: sends run its active
// profile's serialize/copy (or zero-copy) stages before the wire and
// deserialize after it.
func (w *World) SetTransport(tp *transport.Transport) { w.tp = tp }

// IsendFrom is Isend with the source node overridden: a speculative
// backup attempt executing rank from on a different node streams its
// partitions over that node's links, not the rank's home links.
func (w *World) IsendFrom(srcNode, from, to, tag int, nominalBytes float64, payload any, onDone func()) {
	w.IsendFromRecords(srcNode, from, to, tag, nominalBytes, 0, payload, onDone)
}

// IsendFromRecords is IsendFrom with the payload's nominal record
// count, which the staged transport uses for per-record costs and the
// zero-copy eligibility check (records <= 0 means one contiguous
// buffer).
func (w *World) IsendFromRecords(srcNode, from, to, tag int, nominalBytes, nominalRecords float64, payload any, onDone func()) {
	if from < 0 || from >= len(w.nodeOf) || to < 0 || to >= len(w.nodeOf) {
		panic(fmt.Sprintf("mpi: Isend with invalid ranks %d->%d", from, to))
	}
	deliver := func() {
		w.boxes[to] = append(w.boxes[to], &Message{From: from, Tag: tag, Nominal: nominalBytes, Payload: payload})
		w.cond(to).Broadcast()
		if onDone != nil {
			onDone()
		}
	}
	arrive := func() {
		if w.LatencySecs > 0 {
			w.c.Eng.Post(w.LatencySecs, deliver)
		} else {
			deliver()
		}
	}
	w.tp.Send(srcNode, w.nodeOf[to], nominalBytes, nominalRecords, arrive)
}

// Send is the blocking form of Isend: it parks the proc until the
// transfer completes (an eager/buffered send that has fully drained).
func (w *World) Send(p *sim.Proc, from, to, tag int, nominalBytes float64, payload any) {
	var wg sim.WaitGroup
	wg.Add(1)
	w.Isend(from, to, tag, nominalBytes, payload, wg.Done)
	p.BlockReason = "net-send"
	wg.Wait(p)
	p.BlockReason = ""
}

// Recv blocks rank until a message matching (from, tag) arrives and
// returns it. from may be AnySource; tag < 0 matches any tag. Matching
// preserves arrival order (MPI's non-overtaking rule per pair).
func (w *World) Recv(p *sim.Proc, rank, from, tag int) *Message {
	for {
		box := w.boxes[rank]
		for i, m := range box {
			if (from == AnySource || m.From == from) && (tag < 0 || m.Tag == tag) {
				w.boxes[rank] = append(box[:i:i], box[i+1:]...)
				return m
			}
		}
		w.cond(rank).Wait(p, "net-recv")
	}
}

// TryRecv is the nonblocking probe-and-receive: it returns nil when no
// matching message is queued.
func (w *World) TryRecv(rank, from, tag int) *Message {
	box := w.boxes[rank]
	for i, m := range box {
		if (from == AnySource || m.From == from) && (tag < 0 || m.Tag == tag) {
			w.boxes[rank] = append(box[:i:i], box[i+1:]...)
			return m
		}
	}
	return nil
}

// Pending reports how many undelivered messages wait in rank's mailbox.
func (w *World) Pending(rank int) int { return len(w.boxes[rank]) }

// Barrier blocks until all ranks have entered it.
func (w *World) Barrier(p *sim.Proc) {
	gen := w.barrier.gen
	w.barrier.waiting++
	if w.barrier.waiting == len(w.nodeOf) {
		w.barrier.waiting = 0
		w.barrier.gen++
		w.barrier.cond.Broadcast()
		return
	}
	for w.barrier.gen == gen {
		w.barrier.cond.Wait(p, "barrier")
	}
}

// Bcast sends payload from root to every other rank (blocking at the
// caller until all transfers complete). Receivers must Recv with the tag.
func (w *World) Bcast(p *sim.Proc, root, tag int, nominalBytes float64, payload any) {
	var wg sim.WaitGroup
	for r := 0; r < len(w.nodeOf); r++ {
		if r == root {
			continue
		}
		wg.Add(1)
		w.Isend(root, r, tag, nominalBytes, payload, wg.Done)
	}
	p.BlockReason = "net-send"
	wg.Wait(p)
	p.BlockReason = ""
}
