package dict

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"gqa/internal/rdf"
	"gqa/internal/store"
)

// familyGraph builds the paper's "uncle of" example (Figure 4):
//
//	JosephKennedy --hasChild--> TedKennedy
//	JosephKennedy --hasChild--> JFK
//	JFK           --hasChild--> JFKJr
//	TedKennedy    --hasGender--> male
//	JFKJr         --hasGender--> male
func familyGraph(t testing.TB) (*store.Graph, map[string]store.ID) {
	t.Helper()
	g := store.New()
	ids := make(map[string]store.ID)
	ent := func(name string) store.ID {
		id := g.Intern(rdf.Resource(name))
		ids[name] = id
		return id
	}
	pred := func(name string) store.ID {
		id := g.Intern(rdf.Ontology(name))
		ids[name] = id
		return id
	}
	joseph, ted, jfk, jr := ent("Joseph_Kennedy"), ent("Ted_Kennedy"), ent("John_F_Kennedy"), ent("John_F_Kennedy_Jr")
	male := ent("male")
	hasChild, hasGender := pred("hasChild"), pred("hasGender")
	g.AddSPO(joseph, hasChild, ted)
	g.AddSPO(joseph, hasChild, jfk)
	g.AddSPO(jfk, hasChild, jr)
	g.AddSPO(ted, hasGender, male)
	g.AddSPO(jr, hasGender, male)
	return g, ids
}

func TestSimplePathsUncleExample(t *testing.T) {
	g, ids := familyGraph(t)
	paths := SimplePathsDFS(g, ids["Ted_Kennedy"], ids["John_F_Kennedy_Jr"], 3)
	// Expect exactly two: hasChild⁻¹·hasChild·hasChild ("uncle of") and
	// hasGender·hasGender⁻¹ (the noise path through male).
	if len(paths) != 2 {
		t.Fatalf("got %d paths: %v", len(paths), renderAll(g, paths))
	}
	keys := map[string]bool{}
	for _, p := range paths {
		keys[p.Render(g)] = true
	}
	if !keys["<hasChild>⁻¹·<hasChild>·<hasChild>"] {
		t.Errorf("missing uncle path; got %v", keys)
	}
	if !keys["<hasGender>·<hasGender>⁻¹"] {
		t.Errorf("missing gender noise path; got %v", keys)
	}
}

func renderAll(g *store.Graph, ps []Path) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Render(g)
	}
	return out
}

func TestSimplePathsRespectsLengthBound(t *testing.T) {
	g, ids := familyGraph(t)
	if got := SimplePathsDFS(g, ids["Ted_Kennedy"], ids["John_F_Kennedy_Jr"], 2); len(got) != 1 {
		t.Fatalf("maxLen=2: got %v", renderAll(g, got))
	}
	if got := SimplePathsDFS(g, ids["Ted_Kennedy"], ids["John_F_Kennedy_Jr"], 1); len(got) != 0 {
		t.Fatalf("maxLen=1: got %v", renderAll(g, got))
	}
	if got := SimplePathsDFS(g, ids["Ted_Kennedy"], ids["Ted_Kennedy"], 3); got != nil {
		t.Fatalf("self paths: got %v", renderAll(g, got))
	}
}

func TestReverse(t *testing.T) {
	p := Path{{Pred: 1, Forward: true}, {Pred: 2, Forward: false}}
	r := p.Reverse()
	want := Path{{Pred: 2, Forward: true}, {Pred: 1, Forward: false}}
	if r.Key() != want.Key() {
		t.Fatalf("Reverse = %v, want %v", r, want)
	}
	if p.Reverse().Reverse().Key() != p.Key() {
		t.Fatal("double reverse is not identity")
	}
}

func randomTestGraph(r *rand.Rand) (*store.Graph, []store.ID) {
	g := store.New()
	nv := 4 + r.Intn(8)
	verts := make([]store.ID, nv)
	for i := range verts {
		verts[i] = g.Intern(rdf.Resource(fmt.Sprintf("v%d", i)))
	}
	np := 1 + r.Intn(3)
	preds := make([]store.ID, np)
	for i := range preds {
		preds[i] = g.Intern(rdf.Ontology(fmt.Sprintf("p%d", i)))
	}
	ne := r.Intn(3 * nv)
	for i := 0; i < ne; i++ {
		g.AddSPO(verts[r.Intn(nv)], preds[r.Intn(np)], verts[r.Intn(nv)])
	}
	return g, verts
}

func sortedKeys(ps []Path) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Key()
	}
	sort.Strings(out)
	return out
}

// TestQuickBidirectionalAgreesWithDFS is the core miner invariant: the
// meet-in-the-middle search finds exactly the same predicate-path patterns
// as the reference DFS, for every length bound.
func TestQuickBidirectionalAgreesWithDFS(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, verts := randomTestGraph(r)
		from := verts[r.Intn(len(verts))]
		to := verts[r.Intn(len(verts))]
		for maxLen := 1; maxLen <= 4; maxLen++ {
			a := sortedKeys(SimplePathsDFS(g, from, to, maxLen))
			b := sortedKeys(SimplePathsBidirectional(g, from, to, maxLen))
			if len(a) != len(b) {
				t.Logf("seed %d maxLen %d: dfs %d paths, bidi %d", seed, maxLen, len(a), len(b))
				return false
			}
			for i := range a {
				if a[i] != b[i] {
					t.Logf("seed %d maxLen %d: %v vs %v", seed, maxLen, a, b)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestFollowPath(t *testing.T) {
	g, ids := familyGraph(t)
	hasChild := ids["hasChild"]
	uncle := Path{
		{Pred: hasChild, Forward: false},
		{Pred: hasChild, Forward: true},
		{Pred: hasChild, Forward: true},
	}
	var w Walker
	w.Reset(g.FrozenView())
	got := w.Follow(nil, ids["Ted_Kennedy"], uncle)
	if len(got) != 1 || got[0] != ids["John_F_Kennedy_Jr"] {
		t.Fatalf("Follow = %v", got)
	}
	// No route from JFK Jr forward along "uncle".
	if got := w.Follow(nil, ids["John_F_Kennedy_Jr"], uncle); got != nil {
		t.Fatalf("unexpected routes: %v", got)
	}
}

func TestPathConnectsEitherOrientation(t *testing.T) {
	g, ids := familyGraph(t)
	hasChild := ids["hasChild"]
	uncle := Path{
		{Pred: hasChild, Forward: false},
		{Pred: hasChild, Forward: true},
		{Pred: hasChild, Forward: true},
	}
	var w Walker
	w.Reset(g.FrozenView())
	if fwd, ok := w.Connects(ids["Ted_Kennedy"], ids["John_F_Kennedy_Jr"], uncle); !ok || !fwd {
		t.Fatalf("uncle path should connect Ted → JFK Jr, forward (got ok=%t forward=%t)", ok, fwd)
	}
	// Also from the other side (Definition 3 allows either direction).
	if fwd, ok := w.Connects(ids["John_F_Kennedy_Jr"], ids["Ted_Kennedy"], uncle); !ok || fwd {
		t.Fatalf("uncle path should connect with swapped endpoints, reversed (got ok=%t forward=%t)", ok, fwd)
	}
	if _, ok := w.Connects(ids["Joseph_Kennedy"], ids["male"], uncle); ok {
		t.Fatal("uncle path must not connect Joseph → male")
	}
}

// TestQuickFollowPathMatchesSimplePaths: if a simple path p exists between
// u and w, a walk of p from u must reach w.
func TestQuickFollowPathMatchesSimplePaths(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, verts := randomTestGraph(r)
		from := verts[r.Intn(len(verts))]
		to := verts[r.Intn(len(verts))]
		var w Walker
		w.Reset(g.FrozenView())
		for _, p := range SimplePathsDFS(g, from, to, 3) {
			found := false
			for _, dst := range w.Follow(nil, from, p) {
				if dst == to {
					found = true
					break
				}
			}
			if !found {
				t.Logf("seed %d: path %v does not follow back to target", seed, p)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
