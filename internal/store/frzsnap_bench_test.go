package store_test

// Cold-start micro benchmarks over the bundled mini-DBpedia KB (external
// test package so it can build the KB via internal/bench). The gqa-bench
// coldstart experiment measures the same paths on serving-scale graphs;
// these pin the small-graph constants.

import (
	"bytes"
	"io"
	"testing"

	"gqa/internal/bench"
	"gqa/internal/store"
)

func kbFrozenBytes(b *testing.B) []byte {
	b.Helper()
	g, err := bench.BuildKB()
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := store.SaveFrozen(&buf, g); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

func BenchmarkLoadFrozenKB(b *testing.B) {
	data := kbFrozenBytes(b)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.LoadFrozen(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
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
