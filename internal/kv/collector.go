package kv

// PartitionCollector accumulates emitted records into R partitions with a
// bounded total buffer, sorting (and combining) each partition into runs
// when the buffer fills — Hadoop's io.sort.mb map-output buffer, and the
// O-side partition buffers of DataMPI.
type PartitionCollector struct {
	parts       int
	bufferBytes int // spill threshold over all partitions (0 = unbounded)
	combine     Combiner
	part        Partitioner

	current  [][]Pair // unsorted per-partition buffers
	runs     [][][]Pair
	buffered int
	spills   int
	spillB   int // total bytes spilled

	arena *Arena // record bytes batched into blocks
}

// NewPartitionCollector creates a collector for nParts partitions.
func NewPartitionCollector(nParts, bufferBytes int, combine Combiner, part Partitioner) *PartitionCollector {
	if nParts < 1 {
		nParts = 1
	}
	return &PartitionCollector{
		parts:       nParts,
		bufferBytes: bufferBytes,
		combine:     combine,
		part:        part,
		current:     make([][]Pair, nParts),
		runs:        make([][][]Pair, nParts),
		arena:       NewArena(),
	}
}

// Emit adds one record (copying key and value, since map functions may
// reuse buffers). Copies land in the collector's arena blocks.
func (c *PartitionCollector) Emit(key, value []byte) {
	pi := 0
	if c.parts > 1 {
		pi = c.part.Partition(key, c.parts)
	}
	p := c.arena.CopyPair(key, value)
	c.current[pi] = append(c.current[pi], p)
	c.buffered += p.Size()
	if c.bufferBytes > 0 && c.buffered >= c.bufferBytes {
		c.spill()
	}
}

func (c *PartitionCollector) spill() {
	if c.buffered == 0 {
		return
	}
	for pi := range c.current {
		if len(c.current[pi]) == 0 {
			continue
		}
		SortPairs(c.current[pi])
		run := CombineSorted(c.current[pi], c.combine)
		for _, p := range run {
			c.spillB += p.Size()
		}
		c.runs[pi] = append(c.runs[pi], run)
		if c.combine != nil {
			// The combined run is a fresh slice, so the buffer's backing
			// array can be reused for the next fill.
			c.current[pi] = c.current[pi][:0]
		} else {
			// CombineSorted returned the buffer itself; the run aliases it.
			c.current[pi] = nil
		}
	}
	c.buffered = 0
	c.spills++
}

// Spills reports how many buffer overflows occurred.
func (c *PartitionCollector) Spills() int { return c.spills }

// Finish sorts the remaining buffer and merges runs per partition. It
// returns the sorted, combined partitions plus the bytes written during
// spills (spillBytes) and the bytes re-read by the final merge
// (mergeBytes, zero when at most one run existed per partition).
func (c *PartitionCollector) Finish() (parts [][]Pair, spillBytes, mergeBytes int) {
	hadSpills := c.spills > 0
	c.spill()
	parts = make([][]Pair, c.parts)
	for pi := range c.runs {
		switch len(c.runs[pi]) {
		case 0:
		case 1:
			parts[pi] = c.runs[pi][0]
		default:
			merged := MergeRuns(c.runs[pi])
			parts[pi] = CombineSorted(merged, c.combine)
		}
	}
	spillBytes = c.spillB
	if hadSpills && c.spills > 1 {
		// Multi-run merge re-reads everything that was spilled.
		mergeBytes = c.spillB
	}
	c.runs = nil
	c.current = nil
	return parts, spillBytes, mergeBytes
}
