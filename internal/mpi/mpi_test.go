package mpi

import (
	"testing"

	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/sim"
)

func world(ranksPerNode int) (*cluster.Cluster, *World) {
	c := cluster.New(cluster.DefaultHardware())
	return c, RoundRobinWorld(c, ranksPerNode)
}

// send is a blocking send: Isend, then park p until the transfer has
// been delivered.
func send(p *sim.Proc, w *World, from, to, tag int, nominalBytes float64, payload any) {
	var wg sim.WaitGroup
	wg.Add(1)
	w.Isend(from, to, tag, nominalBytes, payload, wg.Done)
	wg.Wait(p)
}

func TestSendRecvPayload(t *testing.T) {
	c, w := world(1)
	var got string
	c.Eng.Go("sender", func(p *sim.Proc) {
		send(p, w, 0, 1, 7, 1e6, "hello")
	})
	c.Eng.Go("receiver", func(p *sim.Proc) {
		m := w.Recv(p, 1, 0, 7)
		got = m.Payload.(string)
	})
	if err := c.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "hello" {
		t.Fatalf("payload = %q", got)
	}
	if c.Eng.Now() <= 0 {
		t.Fatal("transfer charged no simulated time")
	}
}

func TestRecvAnySource(t *testing.T) {
	c, w := world(1)
	seen := map[int]bool{}
	for s := 1; s <= 3; s++ {
		s := s
		c.Eng.Go("s", func(p *sim.Proc) { send(p, w, s, 0, 1, 1000, s) })
	}
	c.Eng.Go("r", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			m := w.Recv(p, 0, AnySource, 1)
			seen[m.From] = true
		}
	})
	if err := c.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 {
		t.Fatalf("received from %v, want 3 senders", seen)
	}
}

func TestMessageOrderingPerPair(t *testing.T) {
	c, w := world(1)
	var order []int
	c.Eng.Go("s", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			send(p, w, 0, 1, 1, 1000, i)
		}
	})
	c.Eng.Go("r", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			m := w.Recv(p, 1, 0, 1)
			order = append(order, m.Payload.(int))
		}
	})
	if err := c.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("out of order: %v", order)
		}
	}
}

func TestTagMatching(t *testing.T) {
	c, w := world(1)
	var first int
	c.Eng.Go("s", func(p *sim.Proc) {
		send(p, w, 0, 1, 10, 100, 10)
		send(p, w, 0, 1, 20, 100, 20)
	})
	c.Eng.Go("r", func(p *sim.Proc) {
		// Receive tag 20 first even though tag 10 arrived first.
		m := w.Recv(p, 1, 0, 20)
		first = m.Payload.(int)
		w.Recv(p, 1, 0, 10)
	})
	if err := c.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if first != 20 {
		t.Fatalf("tag matching failed: got %d", first)
	}
}

func TestIsendOverlapsCompute(t *testing.T) {
	// A rank that Isends 117MB (1s on the link) while computing 1s of CPU
	// should finish in ~1s, not ~2s.
	c, w := world(1)
	var done float64
	c.Eng.Go("rank0", func(p *sim.Proc) {
		var wg sim.WaitGroup
		wg.Add(2)
		w.Isend(0, 1, 1, 117*cluster.MB, nil, wg.Done)
		c.Node(w.NodeOf(0)).CPU.Start(1.0, wg.Done)
		wg.Wait(p)
		done = c.Eng.Now()
	})
	c.Eng.Go("rank1", func(p *sim.Proc) { w.Recv(p, 1, 0, 1) })
	if err := c.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if done > 1.2 {
		t.Fatalf("overlapped send+compute took %.2fs, want ~1s", done)
	}
}

// TestAbortWakesReceivers: ranks parked in Recv when the world aborts
// wake and get nil, and a later Recv returns nil at once.
func TestAbortWakesReceivers(t *testing.T) {
	c, w := world(1)
	woke := 0
	for r := 1; r < w.Size(); r++ {
		r := r
		c.Eng.Go("rank", func(p *sim.Proc) {
			if m := w.Recv(p, r, AnySource, -1); m == nil {
				woke++
			}
		})
	}
	c.Eng.Go("root", func(p *sim.Proc) {
		p.Sleep(1)
		w.Abort()
		if m := w.Recv(p, 0, AnySource, -1); m != nil {
			t.Error("Recv after Abort returned a message")
		}
	})
	if err := c.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != w.Size()-1 {
		t.Fatalf("%d of %d parked ranks woke on Abort", woke, w.Size()-1)
	}
}
