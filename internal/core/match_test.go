package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"gqa/internal/budget"
	"gqa/internal/dict"
	"gqa/internal/rdf"
	"gqa/internal/store"
)

// buildQuery constructs a Q^S by hand: who —[play in]→ Philadelphia-ish.
func phillyQuery(ids map[string]store.ID) *QueryGraph {
	p1 := func(p store.ID) dict.Path { return dict.Path{{Pred: p, Forward: true}} }
	phrase := dict.New().Add("play in", []dict.Entry{
		{Path: p1(ids["starring"]), Score: 0.9},
		{Path: p1(ids["playForTeam"]), Score: 0.8},
		{Path: p1(ids["director"]), Score: 0.5},
	})
	q := &QueryGraph{
		Vertices: []Vertex{
			{Arg: Argument{Text: "who", Wh: true}, Unconstrained: true, Select: true},
			{Arg: Argument{Text: "Philadelphia"}, Candidates: []VertexCandidate{
				{ID: ids["Philadelphia"], Score: 0.9},
				{ID: ids["Philadelphia_(film)"], Score: 0.6},
				{ID: ids["Philadelphia_76ers"], Score: 0.5},
			}},
		},
		Edges: []Edge{{
			From: 0, To: 1, Phrase: phrase,
			Candidates: []EdgeCandidate{
				{Path: p1(ids["starring"]), Score: 0.9},
				{Path: p1(ids["playForTeam"]), Score: 0.8},
				{Path: p1(ids["director"]), Score: 0.5},
			},
		}},
	}
	return q
}

func TestMatcherDataDrivenDisambiguation(t *testing.T) {
	g, ids := figure1Graph(t)
	q := phillyQuery(ids)
	matches, _ := findAll(g, q, MatchOptions{TopK: 10})
	if len(matches) == 0 {
		t.Fatal("no matches")
	}
	// Philadelphia (city) has no starring/playForTeam/director edges → it
	// must never appear. The film (starring, director) and the 76ers
	// (playForTeam) both support matches.
	sawFilm, saw76ers := false, false
	for _, m := range matches {
		switch m.Assignment[1] {
		case ids["Philadelphia"]:
			t.Fatal("city matched despite having no compatible edges")
		case ids["Philadelphia_(film)"]:
			sawFilm = true
		case ids["Philadelphia_76ers"]:
			saw76ers = true
		}
	}
	if !sawFilm || !saw76ers {
		t.Fatalf("film=%v 76ers=%v", sawFilm, saw76ers)
	}
	// Scores are sorted descending and ≤ 0 (log space).
	for i, m := range matches {
		if m.Score > 0 {
			t.Fatalf("score %f > 0", m.Score)
		}
		if i > 0 && m.Score > matches[i-1].Score {
			t.Fatal("matches not sorted")
		}
	}
	// Top match must use the film via starring (0.6·0.9 beats 0.5·0.8).
	if matches[0].Assignment[1] != ids["Philadelphia_(film)"] {
		t.Fatalf("top match = %v", g.Term(matches[0].Assignment[1]))
	}
}

func TestMatcherExhaustiveAgreesWithTA(t *testing.T) {
	g, ids := figure1Graph(t)
	q := phillyQuery(ids)
	ta, _ := findAll(g, q, MatchOptions{TopK: 3})
	ex, _ := findAll(g, q, MatchOptions{TopK: 3, Exhaustive: true})
	if len(ta) != len(ex) {
		t.Fatalf("TA %d matches, exhaustive %d", len(ta), len(ex))
	}
	for i := range ta {
		if ta[i].Score != ex[i].Score {
			t.Fatalf("score %d differs: %f vs %f", i, ta[i].Score, ex[i].Score)
		}
		if ta[i].key() != ex[i].key() {
			t.Fatalf("assignment %d differs", i)
		}
	}
}

func TestMatcherPruningPreservesResults(t *testing.T) {
	g, ids := figure1Graph(t)
	q := phillyQuery(ids)
	with, sWith := findAll(g, q, MatchOptions{TopK: 10})
	without, sWithout := findAll(g, q, MatchOptions{TopK: 10, DisablePruning: true})
	if len(with) != len(without) {
		t.Fatalf("pruning changed result count: %d vs %d", len(with), len(without))
	}
	for i := range with {
		if with[i].key() != without[i].key() {
			t.Fatal("pruning changed results")
		}
	}
	// The city candidate is cut by pruning (no compatible adjacent edge).
	if sWith.CandidatesCut == 0 {
		t.Fatalf("pruning cut nothing: %+v", sWith)
	}
	if sWithout.CandidatesCut != 0 {
		t.Fatalf("disabled pruning still cut: %+v", sWithout)
	}
}

func TestMatcherClassExpansion(t *testing.T) {
	g, ids := figure1Graph(t)
	p1 := func(p store.ID) dict.Path { return dict.Path{{Pred: p, Forward: true}} }
	phrase := dict.New().Add("be married to", []dict.Entry{{Path: p1(ids["spouse"]), Score: 1}})
	q := &QueryGraph{
		Vertices: []Vertex{
			{Arg: Argument{Text: "who", Wh: true}, Unconstrained: true, Select: true},
			{Arg: Argument{Text: "actor"}, Candidates: []VertexCandidate{
				{ID: ids["Actor"], IsClass: true, Score: 0.9},
			}},
		},
		Edges: []Edge{{From: 0, To: 1, Phrase: phrase,
			Candidates: []EdgeCandidate{{Path: p1(ids["spouse"]), Score: 1}}}},
	}
	matches, _ := findAll(g, q, MatchOptions{TopK: 10})
	if len(matches) == 0 {
		t.Fatal("no matches")
	}
	for _, m := range matches {
		// Vertex 1 must be an instance of Actor, recorded via the class.
		if m.Via[1] != ids["Actor"] {
			t.Fatalf("via = %v", m.Via)
		}
		if !g.Has(m.Assignment[1], g.TypeID(), ids["Actor"]) {
			t.Fatal("matched entity is not an Actor")
		}
	}
}

func TestMatcherInjective(t *testing.T) {
	g, ids := figure1Graph(t)
	q := phillyQuery(ids)
	matches, _ := findAll(g, q, MatchOptions{TopK: 10})
	for _, m := range matches {
		if m.Assignment[0] == m.Assignment[1] {
			t.Fatal("assignment not injective")
		}
	}
}

func TestMatcherPathEdge(t *testing.T) {
	// An edge whose only candidate is the length-3 "uncle" path.
	g := store.New()
	r := func(n string) store.ID { return g.Intern(rdf.Resource(n)) }
	hasChild := g.Intern(rdf.Ontology("hasChild"))
	gp, uncle, parent, nephew := r("Gp"), r("Uncle"), r("Parent"), r("Nephew")
	g.AddSPO(gp, hasChild, uncle)
	g.AddSPO(gp, hasChild, parent)
	g.AddSPO(parent, hasChild, nephew)
	unclePath := dict.Path{
		{Pred: hasChild, Forward: false},
		{Pred: hasChild, Forward: true},
		{Pred: hasChild, Forward: true},
	}
	phrase := dict.New().Add("uncle of", []dict.Entry{{Path: unclePath, Score: 1}})
	q := &QueryGraph{
		Vertices: []Vertex{
			{Arg: Argument{Text: "who", Wh: true}, Unconstrained: true, Select: true},
			{Arg: Argument{Text: "Nephew"}, Candidates: []VertexCandidate{{ID: nephew, Score: 1}}},
		},
		Edges: []Edge{{From: 0, To: 1, Phrase: phrase,
			Candidates: []EdgeCandidate{{Path: unclePath, Score: 1}}}},
	}
	matches, _ := findAll(g, q, MatchOptions{TopK: 5})
	if len(matches) != 1 {
		t.Fatalf("got %d matches", len(matches))
	}
	if matches[0].Assignment[0] != uncle {
		t.Fatalf("answer = %v, want Uncle", g.Term(matches[0].Assignment[0]))
	}
}

// fanPath is one candidate path of fanQuery's edge: a predicate, the path's
// score, and how many fans point at each center over it.
type fanPath struct {
	pred  string
	score float64
	fans  []int
}

// fanQuery builds the star the top-k tests share: fans point at centers over
// the predicate of the path they were given, and the query asks who —[like]→
// center, with the centers as the one constrained vertex's candidates and
// the paths as the edge's.
func fanQuery(centerScores []float64, paths []fanPath) (*store.Graph, *QueryGraph, []store.ID) {
	g := store.New()
	var centers []VertexCandidate
	for ci, score := range centerScores {
		centers = append(centers, VertexCandidate{ID: g.Intern(rdf.Resource(fmt.Sprintf("center%d", ci))), Score: score})
	}
	var preds []store.ID
	var entries []dict.Entry
	var cands []EdgeCandidate
	for _, fp := range paths {
		pred := g.Intern(rdf.Ontology(fp.pred))
		preds = append(preds, pred)
		for ci, n := range fp.fans {
			for i := 0; i < n; i++ {
				g.AddSPO(g.Intern(rdf.Resource(fmt.Sprintf("%s-fan%d-%d", fp.pred, ci, i))), pred, centers[ci].ID)
			}
		}
		p := dict.Path{{Pred: pred, Forward: true}}
		entries = append(entries, dict.Entry{Path: p, Score: fp.score})
		cands = append(cands, EdgeCandidate{Path: p, Score: fp.score})
	}
	q := &QueryGraph{
		Vertices: []Vertex{
			{Arg: Argument{Text: "who", Wh: true}, Unconstrained: true, Select: true},
			{Arg: Argument{Text: "center"}, Candidates: centers},
		},
		Edges: []Edge{{From: 0, To: 1, Phrase: dict.New().Add("like", entries), Candidates: cands}},
	}
	return g, q, preds
}

// spanCounter is a view that counts the span reads over one predicate: the
// reads a walk over it makes.
type spanCounter struct {
	store.View
	pred  store.ID
	reads int
}

func (c *spanCounter) OutPred(v, p store.ID) []store.Edge {
	if p == c.pred {
		c.reads++
	}
	return c.View.OutPred(v, p)
}

func (c *spanCounter) InPred(v, p store.ID) []store.Edge {
	if p == c.pred {
		c.reads++
	}
	return c.View.InPred(v, p)
}

// TestTopKCountsMatchesTiesIncluded: k counts matches, and every match tied
// with the k-th comes along. Seven matches tied at k = 1 are seven matches;
// twelve at the best score and thirty at a lower one are twelve at k = 10 —
// and since ten were held before the lower path's turn came, that path is
// never walked.
func TestTopKCountsMatchesTiesIncluded(t *testing.T) {
	g, q, _ := fanQuery([]float64{1}, []fanPath{{"likes", 1, []int{7}}})
	matches, _ := findAll(g, q, MatchOptions{TopK: 1})
	if len(matches) != 7 {
		t.Fatalf("got %d matches, want all 7 tied with the first", len(matches))
	}
	for _, m := range matches {
		if m.Score != matches[0].Score {
			t.Fatal("scores not tied")
		}
	}

	g, q, preds := fanQuery([]float64{1}, []fanPath{{"likes", 0.9, []int{12}}, {"knows", 0.3, []int{30}}})
	for _, exhaustive := range []bool{false, true} {
		view := &spanCounter{View: g.FrozenView(), pred: preds[1]}
		matches, stats := findAll(g, q, MatchOptions{TopK: 10, Exhaustive: exhaustive, View: view})
		if len(matches) != 12 || stats.MatchesKept != 12 || matches[11].Score != matches[0].Score {
			t.Fatalf("exhaustive=%v: got %d matches (%d kept), want the 12 at the best score", exhaustive, len(matches), stats.MatchesKept)
		}
		if !exhaustive && (view.reads != 0 || stats.MatchesFound != 12) {
			t.Errorf("the path below the cut was walked: %d span reads, %d matches found", view.reads, stats.MatchesFound)
		}
		if exhaustive && (view.reads == 0 || stats.MatchesFound != 42) {
			t.Errorf("exhaustive search skipped the lower path: %d span reads, %d matches found", view.reads, stats.MatchesFound)
		}
	}
}

// TestTieAtRoundBound: two anchor candidates of equal score, and k matches
// under the first. After its round the cut equals the bound on what the
// second can still give, and a match that ties the cut belongs to the
// result: the search must go on (it would stop on cut ≥ bound).
func TestTieAtRoundBound(t *testing.T) {
	g, q, _ := fanQuery([]float64{0.8, 0.8}, []fanPath{{"likes", 1, []int{3, 2}}})
	matches, stats := findAll(g, q, MatchOptions{TopK: 3})
	if len(matches) != 5 || stats.Rounds != 2 {
		t.Fatalf("got %d matches in %d rounds, want all 5 tied matches from 2 rounds", len(matches), stats.Rounds)
	}
}

// TestResultSetAgainstModel drives the result set with random offers — few
// assignments, few distinct scores, so ties, better justifications and
// matches falling below a rising cut all occur — and requires what it holds
// at the end to be what the definition says: every assignment whose best
// offer scores at least the k-th best of those, at that score, carrying the
// justification of the first offer that reached it, in canonical order.
func TestResultSetAgainstModel(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(4)
		rs := newResultSet(k, 1000, 2, 0)
		best := map[[2]store.ID]Match{}
		for i := 0; i < 5+r.Intn(60); i++ {
			a := [2]store.ID{store.ID(r.Intn(5)), store.ID(40 + r.Intn(5))}
			offer := Match{Assignment: a[:], Via: []store.ID{store.ID(i), store.None}, Score: -float64(1 + r.Intn(4))}
			if old, ok := best[a]; !ok || offer.Score > old.Score {
				best[a] = offer
			}
			rs.offer(&offer)
		}
		var want []Match
		for _, m := range best {
			want = append(want, m)
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].Score != want[j].Score {
				return want[i].Score > want[j].Score
			}
			return want[i].key() < want[j].key()
		})
		if len(want) > k {
			n := k
			for n < len(want) && want[n].Score == want[k-1].Score {
				n++
			}
			want = want[:n]
		}
		got := rs.harvest(&QueryGraph{}).All()
		if len(got) != len(want) || len(rs.results) != len(want) {
			t.Fatalf("seed %d k=%d: harvests %d matches (holds %d), want %d",
				seed, k, len(got), len(rs.results), len(want))
		}
		for i := range want {
			if got[i].key() != want[i].key() || got[i].Score != want[i].Score || got[i].Via[0] != want[i].Via[0] {
				t.Fatalf("seed %d k=%d: match %d is %+v, want %+v", seed, k, i, got[i], want[i])
			}
		}
		if len(want) >= k && rs.theta != want[len(want)-1].Score {
			t.Fatalf("seed %d k=%d: cut %v, want the k-th best score %v", seed, k, rs.theta, want[len(want)-1].Score)
		}
	}
}

func TestEmptyQueryGraphNoMatches(t *testing.T) {
	g, _ := figure1Graph(t)
	q := &QueryGraph{}
	matches, _ := findAll(g, q, MatchOptions{})
	if len(matches) != 0 {
		t.Fatalf("got %d matches from empty query", len(matches))
	}
}

func TestTAEarlyStops(t *testing.T) {
	// A long candidate list whose tail cannot beat the best: TA must stop
	// before probing everything.
	g := store.New()
	r := func(n string) store.ID { return g.Intern(rdf.Resource(n)) }
	pred := g.Intern(rdf.Ontology("p"))
	var cands []VertexCandidate
	hub := r("hub")
	for i := 0; i < 50; i++ {
		v := r("v" + string(rune('0'+i/10)) + string(rune('0'+i%10)))
		g.AddSPO(hub, pred, v)
		score := 1.0 / float64(i+1)
		cands = append(cands, VertexCandidate{ID: v, Score: score})
	}
	p := dict.Path{{Pred: pred, Forward: true}}
	phrase := dict.New().Add("p", []dict.Entry{{Path: p, Score: 1}})
	q := &QueryGraph{
		Vertices: []Vertex{
			{Arg: Argument{Text: "who", Wh: true}, Unconstrained: true, Select: true},
			{Arg: Argument{Text: "x"}, Candidates: cands},
		},
		Edges: []Edge{{From: 0, To: 1, Phrase: phrase,
			Candidates: []EdgeCandidate{{Path: p, Score: 1}}}},
	}
	_, stats := findAll(g, q, MatchOptions{TopK: 1})
	if !stats.EarlyStopped {
		t.Fatalf("TA did not stop early: %+v", stats)
	}
	if stats.Rounds >= 50 {
		t.Fatalf("TA used %d rounds", stats.Rounds)
	}
	_, ex := findAll(g, q, MatchOptions{TopK: 1, Exhaustive: true})
	if ex.EarlyStopped {
		t.Fatal("exhaustive mode stopped early")
	}
	if ex.AnchorsProbed <= stats.AnchorsProbed {
		t.Fatalf("exhaustive should probe more: %d vs %d", ex.AnchorsProbed, stats.AnchorsProbed)
	}
}

// TestExhaustedAnchorStopsTheSearch: once an anchor's candidate list is
// used up every match has been enumerated, so the search stops there even
// while it holds fewer than k matches (θ still −∞). "Did Antonio Banderas
// play in Philadelphia?" anchors Banderas (one candidate) and Philadelphia
// (three, pruning off): one round is the whole search, and it finds what
// the exhaustive search finds.
func TestExhaustedAnchorStopsTheSearch(t *testing.T) {
	g, ids := figure1Graph(t)
	q := phillyQuery(ids)
	q.Vertices[0] = Vertex{Arg: Argument{Text: "Antonio Banderas"},
		Candidates: []VertexCandidate{{ID: ids["Antonio_Banderas"], Score: 1}}}
	opts := MatchOptions{TopK: 10, DisablePruning: true}
	ta, stats := findAll(g, q, opts)
	opts.Exhaustive = true
	ex, exStats := findAll(g, q, opts)
	if stats.Rounds != 1 || !stats.EarlyStopped {
		t.Errorf("TA ran %d rounds (early stopped %v), want 1 (true); exhaustive ran %d",
			stats.Rounds, stats.EarlyStopped, exStats.Rounds)
	}
	if len(ta) == 0 || len(ta) >= opts.TopK {
		t.Fatalf("TA found %d matches, want between 1 and %d", len(ta), opts.TopK-1)
	}
	if len(ta) != len(ex) {
		t.Fatalf("TA %d matches, exhaustive %d", len(ta), len(ex))
	}
	for i := range ta {
		if ta[i].key() != ex[i].key() || ta[i].Score != ex[i].Score {
			t.Fatalf("match %d: TA %s (%g), exhaustive %s (%g)", i, ta[i].key(), ta[i].Score, ex[i].key(), ex[i].Score)
		}
	}
}

// TestMatchCapEndsTheWholeGraphStart: an all-wh question whose ties pass
// maxHeldMatches stops binding vertex 0 at the match the cap refused. Every
// graph vertex of allWhQuery starts one match, so the search spends one
// candidate past the cap, not one per vertex, and says "matches", though its
// candidate budget would have run out had it walked on.
func TestMatchCapEndsTheWholeGraphStart(t *testing.T) {
	g, q := allWhQuery(maxHeldMatches + 1)
	tr := budget.New(context.Background(), budget.Limits{MaxCandidates: 3 * maxHeldMatches / 2})
	if _, stats := findAll(g, q, MatchOptions{Budget: tr}); stats.Truncated != budget.ReasonMatches {
		t.Fatalf("truncated %q, want the matches cap", stats.Truncated)
	}
	if _, cands, _ := tr.Spent(); cands != maxHeldMatches+1 {
		t.Fatalf("the search spent %d candidates, want the cap's %d and the one it refused", cands, maxHeldMatches+1)
	}
}

// degreeCounter counts the whole-graph degree reads a search makes: only
// an unconstrained vertex started from the whole graph makes them.
type degreeCounter struct {
	store.View
	reads int
}

func (c *degreeCounter) Degree(u store.ID) int { c.reads++; return c.View.Degree(u) }

// TestComponentStartsFromItsCandidates: x —p→ ? and ? —p→ y are two
// components, each with one wh-vertex ahead of an entity. Whichever anchor
// a seed binds, the other component starts from its entity, never from
// every graph vertex at its wh-vertex.
func TestComponentStartsFromItsCandidates(t *testing.T) {
	g := store.New()
	p := g.Intern(rdf.Ontology("p"))
	id := func(name string) store.ID { return g.Intern(rdf.Resource(name)) }
	g.AddSPO(id("x"), p, id("a"))
	g.AddSPO(id("b"), p, id("y"))
	for i := range 8 {
		g.AddSPO(id(fmt.Sprintf("c%d", i)), p, id(fmt.Sprintf("d%d", i)))
	}
	path := dict.Path{{Pred: p, Forward: true}}
	q := &QueryGraph{
		Vertices: []Vertex{
			{Unconstrained: true, Select: true},
			{Candidates: []VertexCandidate{{ID: id("a"), Score: 1}}},
			{Unconstrained: true},
			{Candidates: []VertexCandidate{{ID: id("y"), Score: 1}}},
		},
		Edges: []Edge{
			{From: 0, To: 1, Candidates: []EdgeCandidate{{Path: path, Score: 1}}},
			{From: 2, To: 3, Candidates: []EdgeCandidate{{Path: path, Score: 1}}},
		},
	}
	view := &degreeCounter{View: g.FrozenView()}
	matches, _ := findAll(g, q, MatchOptions{View: view})
	want := []store.ID{id("x"), id("a"), id("b"), id("y")}
	if len(matches) != 1 || fmt.Sprint(matches[0].Assignment) != fmt.Sprint(want) {
		t.Fatalf("matches %v, want the one assignment %v", matches, want)
	}
	if view.reads != 0 {
		t.Errorf("the search read %d whole-graph degrees; a component with an entity starts from it", view.reads)
	}
}
