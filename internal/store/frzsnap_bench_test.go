package store_test

// Cold-start micro benchmarks over the bundled mini-DBpedia KB (external
// test package so it can build the KB via internal/bench). These pin the
// small-graph constants; benchmark/ measures the same two boot paths at
// serving scale (setup_s, store.shard_export_load_ms).

import (
	"bytes"
	"io"
	"testing"

	"gqa/internal/bench"
	"gqa/internal/rdf"
	"gqa/internal/store"
)

// BenchmarkLoadFrozenKB times bytes → servable (frozen) graph along both
// boot paths over the same graph: parsing N-Triples and freezing, and
// loading the GQAFRZ1 snapshot, which arrives frozen.
func BenchmarkLoadFrozenKB(b *testing.B) {
	g, err := bench.BuildKB()
	if err != nil {
		b.Fatal(err)
	}
	var nt, frz bytes.Buffer
	if err := rdf.Write(&nt, g.Triples()); err != nil {
		b.Fatal(err)
	}
	if err := store.SaveFrozen(&frz, g); err != nil {
		b.Fatal(err)
	}
	b.Run("ntriples", func(b *testing.B) {
		b.SetBytes(int64(nt.Len()))
		for i := 0; i < b.N; i++ {
			g := store.New()
			if err := g.Load(bytes.NewReader(nt.Bytes())); err != nil {
				b.Fatal(err)
			}
			g.Freeze()
		}
	})
	b.Run("gqafrz1", func(b *testing.B) {
		b.SetBytes(int64(frz.Len()))
		for i := 0; i < b.N; i++ {
			if _, err := store.LoadFrozen(bytes.NewReader(frz.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkSaveFrozenKB(b *testing.B) {
	g, err := bench.BuildKB()
	if err != nil {
		b.Fatal(err)
	}
	g.Freeze()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := store.SaveFrozen(io.Discard, g); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLoadFrozenAllocs: loading the cinema test KB's GQAFRZ1 file
// allocates the decoded sections, the term table's arena, columns and
// index, the class and predicate sets, the label column and the snapshot,
// and nothing a
// term: no string, no index key, and no second copy of the graph —
// rebuilding adjacency lists, a triple set or a predicate index beside the
// snapshot takes it past the ceiling.
func TestLoadFrozenAllocs(t *testing.T) {
	g := bench.NewCinemaKB().Graph
	var frz bytes.Buffer
	if err := store.SaveFrozen(&frz, g); err != nil {
		t.Fatal(err)
	}
	// Measured: 38, the label column one of them; -race has added up to
	// nine.
	// The dictionary as a []rdf.Term and a map keyed by Term.Key() took
	// 4 219 (4 228): two a term.
	ceiling := 38.0
	if raceEnabled {
		ceiling = 47
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := store.LoadFrozen(bytes.NewReader(frz.Bytes())); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d terms, %d triples: %v allocations a load", g.NumTerms(), g.NumTriples(), allocs)
	if allocs > ceiling {
		t.Errorf("LoadFrozen of the cinema test KB allocates %v times, at most %v", allocs, ceiling)
	}
}
