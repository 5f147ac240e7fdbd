package transport

import (
	"strconv"

	"github.com/datampi/datampi-go/internal/sim"
	"github.com/datampi/datampi-go/internal/trace"
)

// Board publishes pipelined map-output streams for one job: producers
// open a Stream per map attempt and commit output fractions as blocks
// land; reducers fetch committed bytes while the map is still running.
type Board struct {
	t       *Transport
	streams []*Stream
	// onOpen notifies the consumer side that a new stream exists
	// (engines wire it to their outputs condition broadcast).
	onOpen func()
}

// NewBoard builds a board on this transport. onOpen (may be nil) fires
// after every Open so waiting reducers can re-scan.
func (t *Transport) NewBoard(onOpen func()) *Board {
	return &Board{t: t, onOpen: onOpen}
}

// Streams returns the streams opened so far, in open order.
func (b *Board) Streams() []*Stream { return b.streams }

// FailAll marks every stream failed (job abort) and wakes fetchers.
func (b *Board) FailAll() {
	for _, s := range b.streams {
		s.Fail()
	}
}

// Stream is one map attempt's incrementally committed output: per
// reduce partition nominal sizes, plus a monotone committed fraction.
type Stream struct {
	b        *Board
	producer int // map index
	node     int
	parts    []float64 // nominal bytes per reduce partition
	records  float64   // nominal records across all partitions
	total    float64
	frac     float64
	finished bool
	failed   bool
	cond     sim.Cond
}

// Open publishes a new stream for map producer running on node.
func (b *Board) Open(producer, node int, partNominal []float64, records float64) *Stream {
	s := &Stream{b: b, producer: producer, node: node, records: records}
	s.parts = append([]float64(nil), partNominal...)
	for _, v := range s.parts {
		s.total += v
	}
	b.streams = append(b.streams, s)
	if b.onOpen != nil {
		b.onOpen()
	}
	return s
}

// Producer returns the map index that owns the stream.
func (s *Stream) Producer() int { return s.producer }

// PartNominal returns partition pi's nominal size (0 when out of range).
func (s *Stream) PartNominal(pi int) float64 {
	if pi < 0 || pi >= len(s.parts) {
		return 0
	}
	return s.parts[pi]
}

// Commit raises the committed fraction (monotone) and wakes fetchers.
func (s *Stream) Commit(frac float64) {
	if s.failed || s.finished {
		return
	}
	if frac > 1 {
		frac = 1
	}
	if frac <= s.frac {
		return
	}
	s.frac = frac
	s.cond.Broadcast()
}

// Finish marks the output complete and wakes fetchers.
func (s *Stream) Finish() {
	if s.failed {
		return
	}
	s.frac = 1
	s.finished = true
	s.cond.Broadcast()
}

// Fail marks the stream dead (attempt killed or node lost) unless it
// already finished; fetchers abort and fall back to the outputs scan.
func (s *Stream) Fail() {
	if s.finished || s.failed {
		return
	}
	s.failed = true
	s.cond.Broadcast()
}

// Failed reports whether the stream was aborted.
func (s *Stream) Failed() bool { return s.failed }

// Finished reports whether the producer committed all output.
func (s *Stream) Finished() bool { return s.finished }

// Fetch pulls partition pi to node dst, chunk by chunk as the producer
// commits, blocking p between commits. Each chunk charges the source
// disk plus the staged wire/deserialize path. It returns the bytes
// fetched and ok=false if the stream failed or its node died mid-way
// (the caller then fetches this map's materialized output whole).
func (s *Stream) Fetch(p *sim.Proc, pi, dst int, onChunk func(srcNode int, bytes float64)) (float64, bool) {
	t := s.b.t
	want := 0.0
	if pi < len(s.parts) {
		want = s.parts[pi]
	}
	fetched := 0.0
	chunks := 0
	var fsp *trace.Span
	if t.tr != nil && t.tr.Stages() {
		fsp = t.tr.Begin("stream-fetch", "net", dst, trace.TidTransport, t.c.Eng.Now()).
			Annotate("src", strconv.Itoa(s.node)).
			Annotate("map", strconv.Itoa(s.producer))
	}
	end := func(ok bool) {
		if fsp == nil {
			return
		}
		fsp.Annotate("bytes", strconv.FormatFloat(fetched, 'f', 0, 64)).
			Annotate("chunks", strconv.Itoa(chunks))
		if !ok {
			fsp.Annotate("failed", "1")
		}
		fsp.EndAt(t.c.Eng.Now())
	}
	for {
		if s.failed || !t.c.Alive(s.node) {
			end(false)
			return fetched, false
		}
		avail := s.frac * want
		if chunk := avail - fetched; chunk > 1e-12 {
			overlapped := !s.finished
			var recs float64
			if s.total > 0 {
				recs = s.records * chunk / s.total
			}
			var wg sim.WaitGroup
			wg.Add(2)
			t.c.Node(s.node).Disk.Start(chunk, wg.Done)
			t.fetchStages(s.node, dst, chunk, recs, wg.Done)
			wg.Wait(p)
			fetched += chunk
			chunks++
			t.stats.BytesPipelined += chunk
			if overlapped {
				t.stats.BytesOverlapped += chunk
			}
			if onChunk != nil {
				onChunk(s.node, chunk)
			}
			continue
		}
		if s.finished && fetched >= want-1e-12 {
			end(true)
			return fetched, true
		}
		s.cond.Wait(p, "pipeline-wait")
	}
}
