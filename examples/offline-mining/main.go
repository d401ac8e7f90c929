// Offline mining: run Algorithm 1 by hand on the "uncle of" example of the
// paper's §3/Figure 4 — a relation phrase whose meaning is a length-3
// predicate path, not a single predicate — and watch tf-idf suppress the
// ⟨hasGender, hasGender⁻¹⟩ noise path.
//
//	go run ./examples/offline-mining
package main

import (
	"bytes"
	"fmt"
	"log"
	"strings"

	"gqa/internal/bench"
	"gqa/internal/dict"
)

func main() {
	g, err := bench.BuildKB()
	if err != nil {
		log.Fatal(err)
	}
	sets, err := bench.SupportSets(g)
	if err != nil {
		log.Fatal(err)
	}

	d, stats := dict.Mine(g, sets, dict.MineOptions{MaxPathLen: 4, TopK: 3})
	fmt.Printf("mined %d phrases from %d supporting pairs (%d distinct paths)\n\n",
		stats.Phrases, stats.PairsProbed, stats.DistinctPath)

	for _, phrase := range []string{"uncle of", "be married to", "flow through"} {
		p, ok := d.Lookup(phrase)
		if !ok {
			continue
		}
		fmt.Printf("%q:\n", phrase)
		for _, e := range p.Entries {
			fmt.Printf("  %.3f  %s\n", e.Score, e.Path.Render(g))
		}
	}

	// The dictionary serializes to a line format consumed by gqa-cli and
	// gqa.Open.
	fmt.Println("\nencoded dictionary sample (first lines):")
	var buf bytes.Buffer
	if err := d.Encode(&buf, g); err != nil {
		log.Fatal(err)
	}
	lines := strings.SplitN(buf.String(), "\n", 6)
	for _, l := range lines[:len(lines)-1] {
		fmt.Println(" ", l)
	}
}
