package dict

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"gqa/internal/rdf"
	"gqa/internal/store"
)

// TestMaintainerMatchesFullMine: after any sequence of PredicateRemoved,
// PredicateAdded and AddPhrase, each following the graph mutation it
// reports, the maintained dictionary is byte for byte what Mine builds from
// scratch on the mutated graph. The graphs are small and dense enough that
// a new edge regularly opens a path between two vertices it does not touch.
func TestMaintainerMatchesFullMine(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := store.New()
		verts := make([]store.ID, 14)
		for i := range verts {
			verts[i] = g.Intern(rdf.Resource(fmt.Sprintf("v%d", i)))
		}
		preds := make([]store.ID, 5)
		for i := range preds {
			preds[i] = g.Intern(rdf.Ontology(fmt.Sprintf("p%d", i)))
		}
		addEdges := func(p store.ID, n int) {
			for ; n > 0; n-- {
				g.AddSPO(verts[rng.Intn(len(verts))], p, verts[rng.Intn(len(verts))])
			}
		}
		for _, p := range preds[:4] { // preds[4] is first seen by PredicateAdded
			addEdges(p, 5)
		}
		randomSet := func(i int) SupportSet {
			set := SupportSet{Phrase: fmt.Sprintf("phrase%d of", i)}
			for n := 1 + rng.Intn(4); n > 0; n-- {
				set.Pairs = append(set.Pairs, [2]store.ID{verts[rng.Intn(len(verts))], verts[rng.Intn(len(verts))]})
			}
			return set
		}
		sets := []SupportSet{randomSet(0), randomSet(1), randomSet(2)}
		opts := MineOptions{MaxPathLen: 2 + rng.Intn(3), TopK: 3}
		m := NewMaintainer(g, sets, opts)
		for step := 0; step < 8; step++ {
			var op string
			switch p := preds[rng.Intn(len(preds))]; rng.Intn(3) {
			case 0:
				op = "PredicateRemoved"
				g.RemovePredicate(p)
				m.PredicateRemoved(p)
			case 1:
				op = "PredicateAdded"
				addEdges(p, 1+rng.Intn(3))
				m.PredicateAdded(p)
			default:
				op = "AddPhrase"
				sets = append(sets, randomSet(len(sets)))
				m.AddPhrase(sets[len(sets)-1])
			}
			full, _ := Mine(g, sets, opts)
			if got, want := encoded(t, m.Dictionary(), g), encoded(t, full, g); got != want {
				t.Fatalf("seed %d step %d (%s, θ=%d): maintained dictionary\n%s\nfresh Mine\n%s", seed, step, op, opts.MaxPathLen, got, want)
			}
		}
	}
}

func encoded(t *testing.T, d *Dictionary, g *store.Graph) string {
	t.Helper()
	var buf bytes.Buffer
	if err := d.Encode(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func assertSameDict(t *testing.T, a, b *Dictionary, g *store.Graph) {
	t.Helper()
	if len(a.slots) != len(b.slots) {
		t.Fatalf("dict sizes differ: %d vs %d", len(a.slots), len(b.slots))
	}
	for _, pa := range a.Phrases() {
		pb, ok := b.lookup(strings.Join(pa.Lemmas, " "))
		if !ok {
			t.Fatalf("phrase %q missing", pa.Text)
		}
		if len(pa.Entries) != len(pb.Entries) {
			t.Fatalf("phrase %q: %d vs %d entries", pa.Text, len(pa.Entries), len(pb.Entries))
		}
		for i := range pa.Entries {
			if pa.Entries[i].Path.Key() != pb.Entries[i].Path.Key() {
				t.Fatalf("phrase %q entry %d: %s vs %s", pa.Text, i,
					pa.Entries[i].Path.Render(g), pb.Entries[i].Path.Render(g))
			}
		}
	}
}

func TestMaintainerPredicateRemoved(t *testing.T) {
	g, sets, ids := minedFixture(t)
	m := NewMaintainer(g, sets, MineOptions{MaxPathLen: 4, TopK: 3})

	// Remove hasChild entirely: "uncle of" loses its path entries.
	if n := g.RemovePredicate(ids["hasChild"]); n == 0 {
		t.Fatal("no hasChild triples removed")
	}
	m.PredicateRemoved(ids["hasChild"])
	if p, ok := m.Dictionary().Lookup("uncle of"); ok {
		for _, e := range p.Entries {
			if pathUses(e.Path, ids["hasChild"]) {
				t.Fatalf("stale path survives removal: %s", e.Path.Render(g))
			}
		}
	}
	// The incremental result equals a full re-mine of the mutated graph.
	full, _ := Mine(g, sets, MineOptions{MaxPathLen: 4, TopK: 3})
	assertSameDict(t, m.Dictionary(), full, g)
	// Unrelated phrases are untouched.
	if p, ok := m.Dictionary().Lookup("be married to"); !ok || p.Entries[0].Path[0].Pred != ids["spouse"] {
		t.Fatal("unrelated phrase damaged by maintenance")
	}
}

func TestMaintainerPredicateAdded(t *testing.T) {
	g, sets, ids := minedFixture(t)
	// Start from a graph lacking the spouse predicate: remove it first.
	g.RemovePredicate(ids["spouse"])
	m := NewMaintainer(g, sets, MineOptions{MaxPathLen: 4, TopK: 3})
	if p, ok := m.Dictionary().Lookup("be married to"); ok {
		for _, e := range p.Entries {
			if len(e.Path) == 1 && e.Path[0].Pred == ids["spouse"] {
				t.Fatal("spouse entry exists before predicate introduction")
			}
		}
	}

	// Introduce spouse triples and notify.
	for i := 0; i < 3; i++ {
		h, _ := g.Lookup(rdf.Resource("Husband" + string(rune('0'+i))))
		w, _ := g.Lookup(rdf.Resource("Wife" + string(rune('0'+i))))
		g.AddSPO(h, ids["spouse"], w)
	}
	remined := m.PredicateAdded(ids["spouse"])
	if remined == 0 {
		t.Fatal("no phrases re-mined")
	}
	p, ok := m.Dictionary().Lookup("be married to")
	if !ok || len(p.Entries) == 0 || p.Entries[0].Path[0].Pred != ids["spouse"] {
		t.Fatalf("spouse mapping not recovered: %+v", p)
	}
	// Incremental equals full re-mine.
	full, _ := Mine(g, sets, MineOptions{MaxPathLen: 4, TopK: 3})
	assertSameDict(t, m.Dictionary(), full, g)
}

func TestMaintainerAddPhrase(t *testing.T) {
	g, sets, ids := minedFixture(t)
	m := NewMaintainer(g, sets[:2], MineOptions{MaxPathLen: 4, TopK: 3})
	if _, ok := m.Dictionary().Lookup("uncle of"); ok {
		t.Fatal("phrase present before AddPhrase")
	}
	for _, s := range sets[2:] {
		m.AddPhrase(s)
	}
	p, ok := m.Dictionary().Lookup("uncle of")
	if !ok {
		t.Fatal("added phrase missing")
	}
	want := Path{
		{Pred: ids["hasChild"], Forward: false},
		{Pred: ids["hasChild"], Forward: true},
		{Pred: ids["hasChild"], Forward: true},
	}
	if p.Entries[0].Path.Key() != want.Key() {
		t.Fatalf("uncle of → %s", p.Entries[0].Path.Render(g))
	}
	full, _ := Mine(g, sets, MineOptions{MaxPathLen: 4, TopK: 3})
	assertSameDict(t, m.Dictionary(), full, g)
}
