package linker_test

import (
	"runtime"
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
// the place's two tokens are on the postings of 42 cities and one, and the
// skip jumps to the one city on both), a three-token name (its 833 + 840
// + 1 postings hold the ~35 people who share two tokens, and the skip
// gallops from one of them to the next in about a hundred turns) and a
// miss; and "people" at a cap of every slot, which cuts nothing, so it
// reads every slot it reaches.
// "people" is a one-token mention, so its walks are a plain k-way merge.
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
		{"people-all", "people", lk.Slots()},
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

// TestLinkAllocs: a warm name link allocates its lowered text and its
// ten candidates, in one array sized from the limit, and nothing else: the mention's
// tokens, lemmas and ID sets and the skip's head buffers stay on the
// stack, under the race detector too. A link that can find only one
// candidate — a director's unique name on the cinema KB, as match-local
// links — sizes that array for one: 8 bytes of lowered text and one
// 16-byte candidate, where an array sized from the limit took 160. A
// city's name on nl-scale's KB reaches 42 cities and one company, and
// the array is sized for what the walk can still pass after the first
// keep, not for those 43 postings.
func TestLinkAllocs(t *testing.T) {
	kb, err := nlScale()
	if err != nil {
		t.Fatal(err)
	}
	lk := linker.New(kb.Graph, linker.Options{})
	link := func() { sink = lk.Link("Jonas Kowalski 12345", 10) }
	link()
	const ceiling = 2
	allocs := testing.AllocsPerRun(100, link)
	t.Logf("%d candidates, %v allocations a link", len(sink), allocs)
	if allocs > ceiling {
		t.Errorf("a warm name link allocates %v times, at most %d", allocs, ceiling)
	}

	cinema := linker.New(bench.NewCinemaKB().Graph, linker.Options{})
	unique := func() { sink = cinema.Link("Zuvabix", 10) }
	unique()
	if len(sink) != 1 {
		t.Fatalf("the cinema director's name links %d candidates, want its one", len(sink))
	}
	const byteCeiling = 32 // measured: 24, and 32 under -race
	if b := bytesPerRun(100, unique); b > byteCeiling {
		t.Errorf("a unique-hit link allocates %d bytes, at most %d", b, byteCeiling)
	}

	place := func() { sink = lk.Link("Ciudad 0123", 10) }
	place()
	if len(sink) != 1 {
		t.Fatalf("the city links %d candidates, want its one", len(sink))
	}
	// Measured: 48 — its lowered text and two slots. The parent sized the
	// array from every posting the mention reaches, ten slots (176 bytes);
	// the first keep now counts what the rest of the walk can pass: after
	// the city, the class's stretch holds one more slot on "0123"
	// (Compagnie 0123), and nothing in it says that slot lacks "ciudad".
	const placeCeiling = 48
	if b := bytesPerRun(100, place); b > placeCeiling {
		t.Errorf("a one-candidate city link allocates %d bytes, at most %d", b, placeCeiling)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one call
// of f allocates, averaged over runs, on one P.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestLinkerBytes: the index holds at most a ceiling of bytes a slot on
// the cinema test KB and on nl-scale's 20 000-person KB — the vocabulary's
// one arena, offsets and ID index, the label arrays, the postings and the
// slot columns, each at its capacity, so append slack counts. The
// vocabulary map it replaced (a map[string]uint32 and a cloned string per
// token) held about 47 bytes a token on match-local's cinema KB, where
// the arena, its offsets and the index hold about 17. A prior held as a
// float64 a slot, and an empty lemma-only offset a token, took 119.4 and
// 142.9 bytes a slot.
func TestLinkerBytes(t *testing.T) {
	kb, err := nlScale()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		lk      *linker.Linker
		ceiling float64
	}{
		{"cinema", linker.New(bench.NewCinemaKB().Graph, linker.Options{}), 112}, // measured: 108.5
		{"nl-scale", linker.New(kb.Graph, linker.Options{}), 135},                // measured: 131.2
	} {
		perSlot := float64(c.lk.Bytes()) / float64(c.lk.Slots())
		t.Logf("%s: %d slots, %d bytes, %.1f bytes a slot", c.name, c.lk.Slots(), c.lk.Bytes(), perSlot)
		if perSlot > c.ceiling {
			t.Errorf("%s: the index holds %.1f bytes a slot, at most %v", c.name, perSlot, c.ceiling)
		}
	}
}
