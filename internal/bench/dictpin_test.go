package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"gqa/internal/dict"
	"gqa/internal/store"
)

// TestMinedDictionariesPinned hashes the dictionaries the benchmark
// workloads mine. The miners sample support pairs from the first N triples
// the builder's Graph.Match(Any, p, Any) yields, in insertion order, so a
// reordering of the builder's scans changes what is mined — and with it
// what a benchmark workload costs — without failing any behavioural test.
// The hashes were taken at commit 02518c6, before the store's read paths
// were collapsed (the cinema row at d5212e7, before Mine became a Maintainer
// nobody updates); a deliberate change to the generators or the miner
// re-pins them, anything else that moves them is a regression.
func TestMinedDictionariesPinned(t *testing.T) {
	hash := func(d *dict.Dictionary, g *store.Graph) string {
		var buf bytes.Buffer
		if err := d.Encode(&buf, g); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		return hex.EncodeToString(sum[:])
	}
	kb, err := BuildKB()
	if err != nil {
		t.Fatal(err)
	}
	kbDict, _, err := BuildDictionary(kb)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := NewNLScaleKB(400, 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	yago, err := BuildYagoKB()
	if err != nil {
		t.Fatal(err)
	}
	yagoDict, err := BuildYagoDictionary(yago)
	if err != nil {
		t.Fatal(err)
	}
	// The cinema KB ships a written dictionary; this row mines its graph
	// the way benchmark/'s match-local mines its own (a sample of starring
	// pairs spread over the films, θ = 3): one-, two- and three-hop entries.
	cinema := NewCinemaKB().Graph
	starring, _ := cinema.LookupIRI("http://dbpedia.org/ontology/starring")
	director, _ := cinema.LookupIRI("http://dbpedia.org/ontology/director")
	cinemaSets := []dict.SupportSet{{Phrase: "play in"}, {Phrase: "direct"}, {Phrase: "work under"}}
	n := 0
	cinema.Match(store.Any, starring, store.Any, func(t store.Spo) bool {
		if n++; n%18 != 0 {
			return true
		}
		cinemaSets[0].Pairs = append(cinemaSets[0].Pairs, [2]store.ID{t.S, t.O})
		cinema.Match(t.S, director, store.Any, func(d store.Spo) bool {
			cinemaSets[1].Pairs = append(cinemaSets[1].Pairs, [2]store.ID{d.S, d.O})
			cinemaSets[2].Pairs = append(cinemaSets[2].Pairs, [2]store.ID{t.O, d.O})
			return true
		})
		return len(cinemaSets[0].Pairs) < 40
	})
	cinemaDict, _ := dict.Mine(cinema, cinemaSets, dict.MineOptions{MaxPathLen: 3, TopK: 3})
	for _, c := range []struct{ name, got, want string }{
		{"BuildDictionary(BuildKB())", hash(kbDict, kb), "251636525d2703809ff5a780acf7d7752f452fe5a7c32e235875dbc56ed1f827"},
		{"NewNLScaleKB(400, 20, 7)", hash(nl.Dict, nl.Graph), "9ed4163d42c7e10a6a563cd2d8cabbb17eae7621da6070be41c617c89f2b0280"},
		{"BuildYagoDictionary(BuildYagoKB())", hash(yagoDict, yago), "a669cafc0089a060ccfcc07dc21b8ada44d0da5aab8d9991edd2df93cdbbe216"},
		{"Mine(NewCinemaKB().Graph)", hash(cinemaDict, cinema), "49b80020d5b13f254ee29921e44bdb1f405a18c56ee71d65d6a5d598cf9f4dda"},
	} {
		if c.got != c.want {
			t.Errorf("%s: dictionary hash %s, pinned %s", c.name, c.got, c.want)
		}
	}
}
