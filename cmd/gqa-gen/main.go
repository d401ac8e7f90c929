// Command gqa-gen generates benchmark data: the bundled mini-DBpedia
// knowledge base, synthetic RDF graphs, and Patty-style relation-phrase
// support files — the inputs of gqa-mine and gqa-cli.
//
// Usage:
//
//	gqa-gen kb [-o kb.nt]                          # the curated mini-DBpedia
//	gqa-gen frozen [-o kb.frz]                     # same KB, GQAFRZ1 frozen snapshot
//	gqa-gen frozen -shard s/K [-o kb.s.shard]      # part s of K of it, for gqa-shard
//	gqa-gen phrases [-o phrases.tsv]               # its phrase support file
//	gqa-gen synth [-entities N] [-degree D] [-preds P] [-seed S] [-frozen] [-o g.nt]
//	gqa-gen synthphrases [-phrases N] [-support M] [-goldfrac F] ...
//
// The frozen format serializes the query-ready CSR arrays themselves
// (checksummed, validated on load), so gqa-serve and gqa-cli can boot from
// it without re-parsing or re-indexing anything; a shard part is the same
// format holding one part of a K-way split, without the term dictionary.
// N-Triples (kb, synth) is the interchange format.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"gqa"
	"gqa/internal/bench"
	"gqa/internal/dict"
	"gqa/internal/store"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	out := fs.String("o", "", "output file (default stdout)")
	entities := fs.Int("entities", 1000, "synthetic graph entities")
	degree := fs.Int("degree", 4, "synthetic graph average degree")
	preds := fs.Int("preds", 20, "synthetic graph predicates")
	seed := fs.Int64("seed", 1, "random seed")
	phrases := fs.Int("phrases", 50, "synthetic phrase count")
	support := fs.Int("support", 10, "support pairs per phrase")
	goldfrac := fs.Float64("goldfrac", 1.0, "per-hop extraction quality")
	frozen := fs.Bool("frozen", false, "emit a GQAFRZ1 frozen snapshot instead of N-Triples (synth)")
	shard := fs.String("shard", "", `export one shard part as "s/K" (frozen; emits part s of K for gqa-shard)`)
	fs.Parse(os.Args[2:])

	w := bufio.NewWriter(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			die(err)
		}
		defer f.Close()
		w = bufio.NewWriter(f)
	}
	defer w.Flush()

	switch cmd {
	case "kb":
		g, err := bench.BuildKB()
		if err != nil {
			die(err)
		}
		if err := gqa.SaveGraph(w, g); err != nil {
			die(err)
		}
	case "frozen":
		g, err := bench.BuildKB()
		if err != nil {
			die(err)
		}
		if *shard != "" {
			s, k, err := parseShardSpec(*shard)
			if err != nil {
				die(err)
			}
			if eff := g.SetShards(k); eff != k {
				die(fmt.Errorf("graph too small for %d shards (clamped to %d)", k, eff))
			}
			if err := store.SaveShardPart(w, g, s); err != nil {
				die(err)
			}
			break
		}
		if err := store.SaveFrozen(w, g); err != nil {
			die(err)
		}
	case "phrases":
		g, err := bench.BuildKB()
		if err != nil {
			die(err)
		}
		sets, err := bench.SupportSets(g)
		if err != nil {
			die(err)
		}
		writePhrases(w, g, sets)
	case "synth":
		sg := bench.NewSynthGraph(bench.SynthOptions{
			Seed: *seed, Entities: *entities, AvgDegree: *degree, Predicates: *preds,
		})
		if *frozen {
			if err := store.SaveFrozen(w, sg.Graph); err != nil {
				die(err)
			}
		} else {
			if err := gqa.SaveGraph(w, sg.Graph); err != nil {
				die(err)
			}
		}
	case "synthphrases":
		sg := bench.NewSynthGraph(bench.SynthOptions{
			Seed: *seed, Entities: *entities, AvgDegree: *degree, Predicates: *preds,
		})
		ps := bench.NewSynthPhrases(sg, bench.SynthPhraseOptions{
			Seed: *seed, Phrases: *phrases, Support: *support, GoldFraction: *goldfrac,
		})
		writePhrases(w, sg.Graph, ps.Sets)
	default:
		usage()
	}
}

// parseShardSpec parses "s/K" (shard s of K, 0 <= s < K, K >= 2).
func parseShardSpec(spec string) (s, k int, err error) {
	if _, err := fmt.Sscanf(spec, "%d/%d", &s, &k); err != nil {
		return 0, 0, fmt.Errorf("bad -shard %q (want \"s/K\", e.g. 0/4)", spec)
	}
	if k < 2 || s < 0 || s >= k {
		return 0, 0, fmt.Errorf("bad -shard %q: need 0 <= s < K and K >= 2", spec)
	}
	return s, k, nil
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: gqa-gen {kb|frozen|phrases|synth|synthphrases} [flags]")
	os.Exit(2)
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "gqa-gen:", err)
	os.Exit(1)
}

func writePhrases(w *bufio.Writer, g *store.Graph, sets []dict.SupportSet) {
	for _, set := range sets {
		for _, pair := range set.Pairs {
			fmt.Fprintf(w, "%s\t%s\t%s\n", set.Phrase, g.Term(pair[0]).Value(), g.Term(pair[1]).Value())
		}
	}
}
