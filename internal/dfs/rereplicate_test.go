package dfs

import (
	"testing"

	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/sim"
)

func TestFsckHealthy(t *testing.T) {
	c := testCluster()
	fs := New(c, DefaultConfig())
	fs.Preload("/a", make([]byte, int(600*cluster.MB)))
	rep := fs.Fsck()
	if rep.Files != 1 || rep.Blocks != 3 {
		t.Fatalf("fsck = %+v", rep)
	}
	if rep.UnderReplicated != 0 || rep.Missing != 0 {
		t.Fatalf("healthy fs reported problems: %+v", rep)
	}
}

func TestFsckDetectsUnderReplication(t *testing.T) {
	c := testCluster()
	fs := New(c, DefaultConfig())
	f := fs.Preload("/a", make([]byte, int(256*cluster.MB)))
	fs.NodeDown(f.Blocks[0].Locations[0])
	rep := fs.Fsck()
	if rep.UnderReplicated == 0 {
		t.Fatalf("under-replication not detected: %+v", rep)
	}
}

// repairNow runs one replication-monitor pass over the current block
// table inside p, as the NameNode does once it declares nodes dead, and
// returns the pass's counters.
func repairNow(p *sim.Proc, fs *FS) MonitorStats {
	m := NewReplicationMonitor(fs, MonitorConfig{})
	defer m.Stop()
	m.run(p)
	return m.Stats()
}

func TestRereplicateRestoresFactor(t *testing.T) {
	c := testCluster()
	fs := New(c, DefaultConfig())
	fs.Preload("/a", make([]byte, int(1*cluster.GB)))
	fs.Preload("/b", make([]byte, int(512*cluster.MB)))

	// Kill two nodes; some blocks lose one or two replicas.
	fs.NodeDown(0)
	fs.NodeDown(3)
	before := fs.Fsck()
	if before.UnderReplicated == 0 {
		t.Skip("seed produced no under-replicated blocks") // deterministic seed: should not happen
	}

	var st MonitorStats
	c.Eng.Go("nn-monitor", func(p *sim.Proc) {
		st = repairNow(p, fs)
	})
	if err := c.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if st.BlocksLost != 0 {
		t.Fatalf("%d blocks lost", st.BlocksLost)
	}
	if st.BlocksRereplicated == 0 {
		t.Fatal("no replicas created")
	}
	after := fs.Fsck()
	if after.UnderReplicated != 0 || after.Missing != 0 {
		t.Fatalf("still unhealthy after re-replication: %+v", after)
	}
	if c.Eng.Now() <= 0 {
		t.Fatal("re-replication charged no simulated time")
	}
	// New replicas never on dead nodes.
	for _, name := range fs.List() {
		f, _ := fs.Open(name)
		for _, b := range f.Blocks {
			live := 0
			for _, loc := range b.Locations {
				if loc != 0 && loc != 3 {
					live++
				}
			}
			if live < fs.Config().Replication {
				t.Fatalf("block %d has %d live replicas", b.ID, live)
			}
		}
	}
}

func TestRereplicateReportsDataLoss(t *testing.T) {
	c := testCluster()
	fs := New(c, DefaultConfig())
	f := fs.Preload("/a", make([]byte, int(256*cluster.MB)))
	for _, loc := range f.Blocks[0].Locations {
		fs.NodeDown(loc)
	}
	var st MonitorStats
	c.Eng.Go("nn", func(p *sim.Proc) {
		st = repairNow(p, fs)
	})
	if err := c.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if st.BlocksLost != 1 || st.BytesLost != f.Blocks[0].Nominal {
		t.Fatalf("want block 0 reported lost, got %+v", st)
	}
}

func TestReadsWorkThroughFailureAndRecovery(t *testing.T) {
	// End-to-end failure story: lose a node mid-life, re-replicate, lose
	// another, and reads still return correct data throughout.
	c := testCluster()
	fs := New(c, Config{BlockSize: 64 * cluster.MB, Replication: 3, Scale: 1, Seed: 9})
	data := make([]byte, int(200*cluster.MB))
	for i := range data {
		data[i] = byte(i * 31)
	}
	fs.Preload("/d", data)
	fs.NodeDown(1)
	c.Eng.Go("ops", func(p *sim.Proc) {
		if st := repairNow(p, fs); st.BlocksLost != 0 {
			t.Errorf("%d blocks lost", st.BlocksLost)
			return
		}
		fs.NodeDown(2)
		got, err := fs.ReadAll(p, "/d", 5)
		if err != nil {
			t.Error(err)
			return
		}
		if len(got) != len(data) {
			t.Errorf("read %d bytes, want %d", len(got), len(data))
		}
		for i := range got {
			if got[i] != data[i] {
				t.Errorf("byte %d differs", i)
				return
			}
		}
	})
	if err := c.Eng.Run(); err != nil {
		t.Fatal(err)
	}
}
