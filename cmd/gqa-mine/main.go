// Command gqa-mine runs the offline stage (Algorithm 1): it mines a
// paraphrase dictionary — relation phrases mapped to predicates and
// predicate paths with tf-idf confidence — from an RDF graph and a
// relation-phrase support file.
//
// Usage:
//
//	gqa-mine -graph graph.nt -phrases phrases.tsv [-theta 4] [-topk 3] [-o dict.tsv]
//	gqa-mine -builtin [-theta 4] [-topk 3] [-o dict.tsv]
//
// The phrase file has one support pair per line:
//
//	relation phrase<TAB>subject IRI<TAB>object IRI
//
// With -builtin the bundled mini-DBpedia and its curated phrase dataset
// are used. The output is the dictionary format read by gqa-cli and
// gqa.Open.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"gqa/internal/bench"
	"gqa/internal/dict"
	"gqa/internal/store"
)

func main() {
	graphPath := flag.String("graph", "", "N-Triples graph file")
	phrasesPath := flag.String("phrases", "", "relation-phrase support file")
	builtin := flag.Bool("builtin", false, "use the bundled mini-DBpedia and phrase dataset")
	theta := flag.Int("theta", 4, "maximum predicate path length θ")
	topk := flag.Int("topk", 3, "entries kept per phrase")
	out := flag.String("o", "", "output file (default stdout)")
	unidirectional := flag.Bool("unidirectional", false, "use the reference DFS instead of bidirectional BFS")
	flag.Parse()

	var (
		g    *store.Graph
		sets []dict.SupportSet
		err  error
	)
	switch {
	case *builtin:
		g, err = bench.BuildKB()
		if err == nil {
			sets, err = bench.SupportSets(g)
		}
	case *graphPath != "" && *phrasesPath != "":
		g = store.New()
		if err = loadGraph(g, *graphPath); err == nil {
			sets, err = loadPhrases(g, *phrasesPath)
		}
	default:
		fmt.Fprintln(os.Stderr, "gqa-mine: need -builtin or both -graph and -phrases")
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gqa-mine:", err)
		os.Exit(1)
	}

	start := time.Now()
	d, stats := dict.Mine(g, sets, dict.MineOptions{
		MaxPathLen:     *theta,
		TopK:           *topk,
		Unidirectional: *unidirectional,
	})
	elapsed := time.Since(start)

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gqa-mine:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := d.Encode(w, g); err != nil {
		fmt.Fprintln(os.Stderr, "gqa-mine:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr,
		"mined %d phrases (θ=%d, top-%d) from %d pairs in %s: %d paths found, %d distinct\n",
		stats.Phrases, *theta, *topk, stats.PairsProbed, elapsed, stats.PathsFound, stats.DistinctPath)
}

func loadGraph(g *store.Graph, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return g.Load(bufio.NewReader(f))
}

func loadPhrases(g *store.Graph, path string) ([]dict.SupportSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	byPhrase := make(map[string]*dict.SupportSet)
	var order []string
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Split(text, "\t")
		if len(parts) != 3 {
			return nil, fmt.Errorf("%s:%d: want 3 tab-separated fields", path, line)
		}
		s, ok1 := g.LookupIRI(parts[1])
		o, ok2 := g.LookupIRI(parts[2])
		if !ok1 || !ok2 {
			continue // pair not in graph — Patty pairs often are not (§3)
		}
		set, ok := byPhrase[parts[0]]
		if !ok {
			set = &dict.SupportSet{Phrase: parts[0]}
			byPhrase[parts[0]] = set
			order = append(order, parts[0])
		}
		set.Pairs = append(set.Pairs, [2]store.ID{s, o})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make([]dict.SupportSet, 0, len(order))
	for _, p := range order {
		out = append(out, *byPhrase[p])
	}
	return out, nil
}
