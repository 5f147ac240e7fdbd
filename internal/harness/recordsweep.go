package harness

import (
	"fmt"
	"math"

	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/transport"
)

// The record-size sweep isolates the staged transport model from the
// engines: the same nominal volume crosses the same wire at every
// point, only the record granularity changes, so any spread between
// profiles is pure per-record serialization/copy overhead — the
// mechanism behind the paper's Figure 3 gap. Hadoop's Writable path
// pays a heavy per-record cost on both ends, so its effective
// throughput collapses as records shrink; DataMPI batches records into
// arena blocks and sends at-or-above-threshold blocks zero-copy, so
// its overhead stays flat across the sweep and the wire stays the
// bottleneck. The crossover size — where a profile's slowdown versus
// the bare wire crosses 2x — is therefore a profile property, not a
// wire property, and moves when the profile's constants move.

const (
	// recordSweepMessages x recordSweepMsgBytes is the transfer train:
	// 16 sequential 4 MB messages node 0 -> node 1 (the DataMPI
	// pipeline block size, so one message = one send unit).
	recordSweepMessages = 16
	recordSweepMsgBytes = 4 * cluster.MB
)

// RecordSweepPoint is one (profile, record size) measurement.
type RecordSweepPoint struct {
	RecordBytes float64
	Elapsed     float64 // simulated seconds for the whole train
	Stats       transport.Stats
}

// Records is the total record count that crossed the wire.
func (p RecordSweepPoint) Records() float64 {
	return recordSweepMessages * recordSweepMsgBytes / p.RecordBytes
}

// ThroughputMBps is the effective end-to-end goodput.
func (p RecordSweepPoint) ThroughputMBps() float64 {
	return recordSweepMessages * recordSweepMsgBytes / p.Elapsed / cluster.MB
}

// RecordSweepRun drives the transfer train through a fresh two-node
// cluster on the given profile, staged or in its fluid form (staged=false
// measures the bare wire, the per-sweep baseline). Messages are sequential — each
// send starts when the previous one fully arrives — so stage costs
// serialize into elapsed time instead of hiding behind pipelining.
func RecordSweepRun(prof transport.Profile, staged bool, recordBytes float64) (RecordSweepPoint, error) {
	hw := cluster.DefaultHardware()
	hw.Nodes = 2
	c := cluster.New(hw)
	t := transport.New(c, prof)
	t.SetStaged(staged)

	records := float64(recordSweepMsgBytes) / recordBytes
	sent := 0
	var next func()
	next = func() {
		if sent >= recordSweepMessages {
			return
		}
		sent++
		t.Send(0, 1, recordSweepMsgBytes, records, next)
	}
	c.Eng.Post(0, next)
	if err := c.Eng.Run(); err != nil {
		return RecordSweepPoint{}, fmt.Errorf("recordsweep(%s, rec=%g): %w", prof.Name, recordBytes, err)
	}
	return RecordSweepPoint{RecordBytes: recordBytes, Elapsed: c.Eng.Now(), Stats: t.Stats()}, nil
}

// recordSweepCrossover interpolates (in log2 record size) where a
// profile's slowdown falls through the 2x line as records grow. It
// returns NaN when the profile never exceeds 2x anywhere in the sweep.
func recordSweepCrossover(sizes []float64, slowdown []float64) float64 {
	const line = 2.0
	for i := 1; i < len(sizes); i++ {
		hi, lo := slowdown[i-1], slowdown[i]
		if hi >= line && lo < line {
			f := (hi - line) / (hi - lo)
			return math.Exp2(math.Log2(sizes[i-1]) + f*(math.Log2(sizes[i])-math.Log2(sizes[i-1])))
		}
	}
	return math.NaN()
}

func init() {
	register(Experiment{
		ID:    "recordsweep",
		Title: "Staged transport record-size sweep: per-record overhead vs record size at identical wire bandwidth",
		Run: func(opt Options) (*Report, error) {
			sizes := []float64{64, 128, 256, 512, 1024, 4096, 16384, 65536}
			if opt.Quick {
				sizes = []float64{64, 512, 4096, 65536}
			}
			profiles := []transport.Profile{
				transport.HadoopProfile(),
				transport.SparkProfile(),
				transport.DataMPIProfile(),
			}

			rep := &Report{ID: "recordsweep",
				Title:   "Effective shuffle throughput and per-record overhead by record size (identical 117 MB/s wire)",
				Columns: []string{"RecordBytes", "Wire(MB/s)"}}
			for _, p := range profiles {
				rep.Columns = append(rep.Columns,
					p.Name+"(MB/s)", p.Name+"(slowdown)", p.Name+"(us/rec)")
			}

			slow := make(map[string][]float64, len(profiles))
			zc := make(map[string][]float64, len(profiles))
			for _, size := range sizes {
				wire, err := RecordSweepRun(transport.Profile{}, false, size)
				if err != nil {
					return nil, err
				}
				row := []string{fmt.Sprintf("%.0f", size), fmt.Sprintf("%.1f", wire.ThroughputMBps())}
				for _, p := range profiles {
					pt, err := RecordSweepRun(p, true, size)
					if err != nil {
						return nil, err
					}
					s := pt.Elapsed / wire.Elapsed
					usPerRec := (pt.Elapsed - wire.Elapsed) * 1e6 / pt.Records()
					slow[p.Name] = append(slow[p.Name], s)
					zc[p.Name] = append(zc[p.Name], pt.Stats.BytesZeroCopied)
					row = append(row,
						fmt.Sprintf("%.1f", pt.ThroughputMBps()),
						fmt.Sprintf("%.2f", s),
						fmt.Sprintf("%.3f", usPerRec))
				}
				rep.Rows = append(rep.Rows, row)
			}

			for _, p := range profiles {
				s := slow[p.Name]
				if cross := recordSweepCrossover(sizes, s); !math.IsNaN(cross) {
					rep.Notes = append(rep.Notes, fmt.Sprintf(
						"%s crosses 2x wire slowdown at ~%.0f-byte records (profile-driven: set by its per-record constants, not the wire)",
						p.Name, cross))
				} else if s[len(s)-1] >= 2 {
					rep.Notes = append(rep.Notes, fmt.Sprintf(
						"%s stays above 2x wire slowdown across the whole sweep (its per-byte costs alone exceed the wire)", p.Name))
				} else {
					rep.Notes = append(rep.Notes, fmt.Sprintf(
						"%s stays under 2x wire slowdown across the whole sweep", p.Name))
				}
			}
			for _, p := range profiles {
				if !p.ZeroCopy {
					continue
				}
				for i, size := range sizes {
					if size >= p.ZeroCopyThresholdBytes && zc[p.Name][i] > 0 {
						rep.Notes = append(rep.Notes, fmt.Sprintf(
							"%s switches to zero-copy at %.0f-byte records (threshold %.0f): the copy stage drops out above it",
							p.Name, size, p.ZeroCopyThresholdBytes))
						break
					}
				}
			}
			rep.Notes = append(rep.Notes,
				"each point: 16 sequential 4 MB messages node0->node1 on a fresh 2-node testbed; wire column is the bare fluid-flow baseline the slowdowns are measured against",
				"maps to the paper's Figure 3 mechanism: Hadoop's per-record Writable costs dominate at small records while DataMPI's block-batched zero-copy path keeps the wire as the bottleneck")
			return rep, nil
		},
	})
}
