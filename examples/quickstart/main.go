// Quickstart: run a DataMPI WordCount job on the simulated 8-node
// testbed and print the ten most frequent words with the simulated job
// time — the smallest end-to-end use of the public API.
package main

import (
	"fmt"
	"log"
	"sort"

	datampi "github.com/datampi/datampi-go"
)

func main() {
	// An 8-node cluster (the paper's Table 2 testbed) with an empty DFS.
	// Scale 1024 stores one real byte per 1024 simulated bytes, so the
	// run takes milliseconds of host time.
	tb := datampi.NewTestbed(datampi.TestbedConfig{Scale: 1024, Seed: 42})

	// Stage 256 MB (nominal) of wikipedia-model text in the DFS.
	in := tb.GenerateText("/data/wiki", 256*datampi.MB, 42)

	// Run WordCount on DataMPI: 32 O tasks feed 32 A tasks.
	eng := datampi.New(tb.FS, datampi.DefaultConfig())
	res := eng.Run(datampi.WordCount(tb.FS, in, "/out/wordcount", 32))
	if res.Err != nil {
		log.Fatal(res.Err)
	}

	counts := datampi.ReadTextOutput(tb.FS, "/out/wordcount")
	sort.Slice(counts, func(i, j int) bool {
		return string(counts[i].Value) > string(counts[j].Value) ||
			(string(counts[i].Value) == string(counts[j].Value) && string(counts[i].Key) < string(counts[j].Key))
	})
	// Numeric sort for the top-10 (values are decimal counts).
	sort.Slice(counts, func(i, j int) bool {
		return atoi(counts[i].Value) > atoi(counts[j].Value)
	})

	fmt.Printf("WordCount finished in %.1f simulated seconds (O phase %.1fs, A phase %.1fs)\n",
		res.Elapsed, res.Phases["O"], res.Phases["A"])
	fmt.Println("top 10 words:")
	for i := 0; i < 10 && i < len(counts); i++ {
		fmt.Printf("  %-12s %s\n", counts[i].Key, counts[i].Value)
	}
}

func atoi(b []byte) int {
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int(c-'0')
	}
	return n
}
