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
