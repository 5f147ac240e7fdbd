package transport_test

import (
	"math"
	"testing"

	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/sim"
	"github.com/datampi/datampi-go/internal/transport"
)

// twoNodes builds a fresh 2-node testbed.
func twoNodes(t *testing.T) *cluster.Cluster {
	t.Helper()
	hw := cluster.DefaultHardware()
	hw.Nodes = 2
	return cluster.New(hw)
}

// runSends drives n sequential Send transfers 0->1 on prof (staged)
// and returns elapsed simulated seconds plus the transport's counters.
func runSends(t *testing.T, prof transport.Profile, n int, bytes, records float64) (float64, transport.Stats) {
	t.Helper()
	c := twoNodes(t)
	tp := transport.New(c, prof)
	tp.SetStaged(true)
	sent := 0
	var next func()
	next = func() {
		if sent >= n {
			return
		}
		sent++
		tp.Send(0, 1, bytes, records, next)
	}
	c.Eng.Post(0, next)
	if err := c.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if sent != n {
		t.Fatalf("only %d of %d sends completed", sent, n)
	}
	return c.Eng.Now(), tp.Stats()
}

// runFlows drives n sequential bare fabric flows 0->1, the transfer
// train runSends sends through the transport, and returns the elapsed
// simulated seconds.
func runFlows(t *testing.T, n int, bytes float64) float64 {
	t.Helper()
	c := twoNodes(t)
	sent := 0
	var next func()
	next = func() {
		if sent >= n {
			return
		}
		sent++
		c.Net.StartFlow(0, 1, bytes, next)
	}
	c.Eng.Post(0, next)
	if err := c.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	return c.Eng.Now()
}

// TestZeroProfileMatchesFluid pins the one-path contract: Send on the
// zero profile, or on any engine profile's fluid form, takes exactly as
// long as a bare Net.StartFlow train — the zero-delay stage events cost
// no simulated time — and still counts every transfer.
func TestZeroProfileMatchesFluid(t *testing.T) {
	bare := runFlows(t, 8, 4*cluster.MB)
	for _, prof := range []transport.Profile{
		{}, transport.HadoopProfile().Fluid(), transport.SparkProfile().Fluid(), transport.DataMPIProfile().Fluid(),
	} {
		sent, st := runSends(t, prof, 8, 4*cluster.MB, 1024)
		if sent != bare {
			t.Errorf("%q: Send time %.12g != bare flow time %.12g", prof.Name, sent, bare)
		}
		if st.Transfers != 8 || st.BytesWire != 8*4*cluster.MB {
			t.Errorf("%q: counters off: %+v", prof.Name, st)
		}
	}
}

// TestNewTransportStartsFluid checks the staging switch: a transport
// starts on its profile's fluid form, PipelineOn cannot pipeline that
// form, and SetStaged picks the staged profile.
func TestNewTransportStartsFluid(t *testing.T) {
	for _, prof := range []transport.Profile{
		transport.HadoopProfile(), transport.SparkProfile(), transport.DataMPIProfile(),
	} {
		tp := transport.New(twoNodes(t), prof)
		if tp.Staged() || tp.Pipelined() || tp.Profile() != prof.Fluid() {
			t.Errorf("%s: a new transport must start on the fluid form", prof.Name)
		}
		tp.SetPipelineMode(transport.PipelineOn)
		if tp.Pipelined() {
			t.Errorf("%s: PipelineOn must not pipeline the fluid form", prof.Name)
		}
		tp.SetStaged(true)
		if !tp.Staged() || !tp.Pipelined() || tp.Profile() != prof {
			t.Errorf("%s: SetStaged(true) must run the staged profile", prof.Name)
		}
	}
}

// TestStagedAtLeastFluid checks the monotonicity the model promises:
// nonzero stage costs can only add time on top of the wire.
func TestStagedAtLeastFluid(t *testing.T) {
	fluid, _ := runSends(t, transport.HadoopProfile().Fluid(), 8, 4*cluster.MB, 4096)
	for _, prof := range []transport.Profile{
		transport.HadoopProfile(), transport.SparkProfile(), transport.DataMPIProfile(),
	} {
		staged, _ := runSends(t, prof, 8, 4*cluster.MB, 4096)
		if staged <= fluid {
			t.Errorf("%s: staged time %.6g should exceed fluid time %.6g", prof.Name, staged, fluid)
		}
	}
}

// TestZeroCopyRouting checks the copy-stage bypass: mean record size at
// or above the threshold routes bytes through the zero-copy counter,
// below it through the copy counter, and ineligible profiles always
// copy.
func TestZeroCopyRouting(t *testing.T) {
	prof := transport.DataMPIProfile() // threshold 512
	const bytes = 4 * cluster.MB

	_, st := runSends(t, prof, 4, bytes, bytes/1024) // 1 KB records
	if st.BytesZeroCopied != 4*bytes || st.BytesCopied != 0 {
		t.Fatalf("large records should go zero-copy: %+v", st)
	}
	_, st = runSends(t, prof, 4, bytes, bytes/64) // 64 B records
	if st.BytesCopied != 4*bytes || st.BytesZeroCopied != 0 {
		t.Fatalf("small records should copy: %+v", st)
	}
	_, st = runSends(t, transport.HadoopProfile(), 4, bytes, bytes/65536)
	if st.BytesZeroCopied != 0 || st.BytesCopied != 4*bytes {
		t.Fatalf("hadoop is never zero-copy eligible: %+v", st)
	}

	// Zero-copy must also be faster: the copy stage drops out.
	zc, _ := runSends(t, prof, 8, bytes, bytes/1024)
	cp, _ := runSends(t, prof, 8, bytes, bytes/256)
	if zc >= cp {
		t.Fatalf("zero-copy run (%.6g s) should beat the copied run (%.6g s)", zc, cp)
	}
}

// TestZeroCopyThresholdMovesCrossover checks that the threshold is a
// live knob: raising it above a workload's record size forces that
// workload back onto the copy path.
func TestZeroCopyThresholdMovesCrossover(t *testing.T) {
	prof := transport.DataMPIProfile()
	const bytes = 4 * cluster.MB
	const rec = 1024.0

	_, st := runSends(t, prof, 4, bytes, bytes/rec)
	if st.BytesZeroCopied == 0 {
		t.Fatal("1 KB records should clear the default 512 B threshold")
	}
	prof.ZeroCopyThresholdBytes = 4096
	_, st = runSends(t, prof, 4, bytes, bytes/rec)
	if st.BytesZeroCopied != 0 || st.BytesCopied != 4*bytes {
		t.Fatalf("raised threshold should force the copy path: %+v", st)
	}
}

// TestStreamFetchPipelined drives a Board/Stream pair end to end: the
// producer commits output in quarters while the consumer fetches, so
// most bytes must arrive overlapped (fetched before Finish).
func TestStreamFetchPipelined(t *testing.T) {
	c := twoNodes(t)
	tp := transport.New(c, transport.DataMPIProfile())
	tp.SetStaged(true)
	opened := 0
	board := tp.NewBoard(func() { opened++ })

	const part = 8 * cluster.MB
	st := board.Open(0, 0, []float64{part, part}, 4096)
	if opened != 1 || len(board.Streams()) != 1 {
		t.Fatalf("open notification lost: opened=%d streams=%d", opened, len(board.Streams()))
	}
	// Producer: commit a quarter every 2 simulated seconds; the last
	// commit is a Finish.
	for i := 1; i <= 4; i++ {
		frac := float64(i) / 4
		c.Eng.Post(float64(i)*2, func() {
			if frac >= 1 {
				st.Finish()
			} else {
				st.Commit(frac)
			}
		})
	}
	var got float64
	var ok, done bool
	var chunks int
	c.Eng.Go("fetcher", func(p *sim.Proc) {
		got, ok = st.Fetch(p, 1, 1, func(src int, bytes float64) {
			if src != 0 || bytes <= 0 {
				t.Errorf("bad chunk: src=%d bytes=%g", src, bytes)
			}
			chunks++
		})
		done = true
	})
	if err := c.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !done || !ok {
		t.Fatalf("fetch did not complete: done=%v ok=%v", done, ok)
	}
	if math.Abs(got-part) > 1e-6 {
		t.Fatalf("fetched %.0f of %.0f bytes", got, float64(part))
	}
	if chunks < 2 {
		t.Fatalf("expected chunked delivery, got %d chunk(s)", chunks)
	}
	stats := tp.Stats()
	if stats.BytesPipelined < part-1e-6 {
		t.Fatalf("pipelined counter %.0f < fetched %.0f", stats.BytesPipelined, float64(part))
	}
	if stats.OverlapFraction() <= 0.5 {
		t.Fatalf("most bytes should arrive before Finish: overlap %.2f", stats.OverlapFraction())
	}
}

// TestStreamFailFallsBack checks the failure contract: a failed stream
// aborts the fetch with ok=false (the reducer then falls back to the
// legacy outputs scan), and Fail after Finish is a no-op.
func TestStreamFailFallsBack(t *testing.T) {
	c := twoNodes(t)
	tp := transport.New(c, transport.DataMPIProfile())
	tp.SetStaged(true)
	board := tp.NewBoard(nil)

	const part = 8 * cluster.MB
	st := board.Open(0, 0, []float64{part}, 1024)
	c.Eng.Post(1, func() { st.Commit(0.25) })
	c.Eng.Post(2, func() { board.FailAll() })
	var ok, done bool
	c.Eng.Go("fetcher", func(p *sim.Proc) {
		_, ok = st.Fetch(p, 0, 1, nil)
		done = true
	})
	if err := c.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !done || ok {
		t.Fatalf("failed stream must abort the fetch: done=%v ok=%v", done, ok)
	}
	if !st.Failed() {
		t.Fatal("stream should report Failed")
	}

	fin := board.Open(1, 0, []float64{part}, 1024)
	fin.Finish()
	fin.Fail()
	if fin.Failed() || !fin.Finished() {
		t.Fatal("Fail after Finish must be a no-op")
	}
}

// TestStreamEmptyPartition checks that a zero-nominal partition
// resolves immediately once the stream finishes, without blocking.
func TestStreamEmptyPartition(t *testing.T) {
	c := twoNodes(t)
	tp := transport.New(c, transport.DataMPIProfile())
	tp.SetStaged(true)
	board := tp.NewBoard(nil)
	st := board.Open(0, 0, []float64{0, 4 * cluster.MB}, 256)
	c.Eng.Post(1, st.Finish)
	var got float64
	var ok, done bool
	c.Eng.Go("fetcher", func(p *sim.Proc) {
		got, ok = st.Fetch(p, 0, 1, nil)
		done = true
	})
	if err := c.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !done || !ok || got != 0 {
		t.Fatalf("empty partition fetch: done=%v ok=%v got=%g", done, ok, got)
	}
	if st.PartNominal(5) != 0 {
		t.Fatal("out-of-range PartNominal should be 0")
	}
}
