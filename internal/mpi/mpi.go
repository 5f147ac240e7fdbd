// Package mpi implements the message-passing substrate DataMPI extends:
// a World of ranks pinned to cluster nodes and eager nonblocking
// point-to-point sends carrying real payloads over the simulated fabric
// into per-rank mailboxes.
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
	aborted bool // Abort was called: every Recv returns nil

	// LatencySecs is the per-message software latency (MPI stack +
	// protocol), charged once per message.
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
	w.IsendFromRecords(w.nodeOf[from], from, to, tag, nominalBytes, 0, payload, onDone)
}

// SetTransport replaces the world's transport: sends run its active
// profile's serialize/copy (or zero-copy) stages before the wire and
// deserialize after it.
func (w *World) SetTransport(tp *transport.Transport) { w.tp = tp }

// IsendFromRecords is Isend with the source node overridden and the
// payload's nominal record count given. A speculative backup attempt
// executing rank from on a different node streams its partitions over
// that node's links, not the rank's home links. The staged transport
// uses the record count for per-record costs and the zero-copy
// eligibility check (records <= 0 means one contiguous buffer).
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

// Recv blocks rank until a message matching (from, tag) arrives and
// returns it. from may be AnySource; tag < 0 matches any tag. Matching
// preserves arrival order (MPI's non-overtaking rule per pair). Once the
// world is aborted Recv returns nil.
func (w *World) Recv(p *sim.Proc, rank, from, tag int) *Message {
	for !w.aborted {
		box := w.boxes[rank]
		for i, m := range box {
			if (from == AnySource || m.From == from) && (tag < 0 || m.Tag == tag) {
				w.boxes[rank] = append(box[:i:i], box[i+1:]...)
				return m
			}
		}
		w.cond(rank).Wait(p, "net-recv")
	}
	return nil
}

// Abort ends the world's communication, as MPI_Abort does when a job
// fails: every rank parked in Recv wakes, and Recv returns nil from now
// on. Messages still in flight are delivered to mailboxes no one reads.
func (w *World) Abort() {
	w.aborted = true
	for r := range w.nodeOf {
		if c, ok := w.conds[r]; ok {
			c.Broadcast()
		}
	}
}
