package linker_test

import (
	"sync"
	"testing"

	"gqa/internal/bench"
	"gqa/internal/linker"
)

// The nl-scale benchmark's KB at its size: 20 000 people whose first and
// last names are each shared by about 830 of them, and an IRI local name
// "Person_…" on every one, so the mention "people" (lemma "person") reaches
// all 20 000.
var nlScale = sync.OnceValues(func() (*bench.NLScaleKB, error) {
	return bench.NewNLScaleKB(20000, 30, 5)
})

// sink keeps the compiler from dropping a benchmarked call.
var sink []linker.Candidate

func nlScaleKB(b *testing.B) *bench.NLScaleKB {
	b.Helper()
	kb, err := nlScale()
	if err != nil {
		b.Fatal(err)
	}
	return kb
}

// BenchmarkLink times one Link at the cap BuildQueryGraph links with, on
// the two links of nl-scale's heavy template ("Which people live in
// Ciudad 0123?": "people" reaches every person and stops at the tenth kept;
// the place reaches every city but the per-slot bound reads one, the only
// city sharing both tokens), a three-token name (both name tokens shared by
// ~830 people, of whom the bound reads the ~35 sharing both) and a miss;
// and "people" with no limit, which reads every slot it reaches.
func BenchmarkLink(b *testing.B) {
	lk := linker.New(nlScaleKB(b).Graph, linker.Options{})
	for _, m := range []struct {
		name, mention string
		limit         int
	}{
		{"people", "people", 10},
		{"place", "Ciudad 0123", 10},
		{"name", "Jonas Kowalski 12345", 10},
		{"miss", "Zanzibar", 10},
		{"people-all", "people", 0},
	} {
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				sink = lk.Link(m.mention, m.limit)
			}
		})
	}
}

// BenchmarkLinkerBuild times New over the same KB: what a System pays at
// boot (linker.index_build_ms), frozen view already built.
func BenchmarkLinkerBuild(b *testing.B) {
	g := nlScaleKB(b).Graph
	g.FrozenView()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if linker.New(g, linker.Options{}) == nil {
			b.Fatal("nil Linker")
		}
	}
}
