package bench

import (
	"testing"

	"gqa/internal/dict"
	"gqa/internal/rdf"
)

func TestBuildKB(t *testing.T) {
	g, err := BuildKB()
	if err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.Entities < 100 {
		t.Errorf("entities = %d, want ≥ 100", st.Entities)
	}
	if st.Triples < 250 {
		t.Errorf("triples = %d, want ≥ 250", st.Triples)
	}
	if st.Predicates < 30 {
		t.Errorf("predicates = %d, want ≥ 30", st.Predicates)
	}
	// The headline ambiguity: three Philadelphia vertices.
	for _, name := range []string{"Philadelphia", "Philadelphia_(film)", "Philadelphia_76ers"} {
		if _, ok := g.Lookup(rdf.Resource(name)); !ok {
			t.Errorf("missing %s", name)
		}
	}
}

func TestKBFactsWellFormed(t *testing.T) {
	g := MustKB()
	// Every typed entity's class is detected as a class.
	for _, td := range typeDecls {
		cid, ok := g.Lookup(rdf.Ontology(td.class))
		if !ok || !g.IsClass(cid) {
			t.Errorf("class %s not detected", td.class)
		}
	}
}

func TestSupportSets(t *testing.T) {
	g := MustKB()
	sets, err := SupportSets(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) < 50 {
		t.Fatalf("only %d support sets", len(sets))
	}
	for _, s := range sets {
		if len(s.Pairs) == 0 {
			t.Errorf("phrase %q has no support", s.Phrase)
		}
	}
}

func TestBuildDictionaryRecoversGoldPredicates(t *testing.T) {
	g := MustKB()
	d, stats, err := BuildDictionary(g)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Phrases < 50 || stats.PairsProbed < 100 {
		t.Fatalf("stats = %+v", stats)
	}
	// Spot-check: each phrase's top entry is the declared predicate.
	checks := map[string]string{
		"be married to":     "spouse",
		"play in":           "starring",
		"be the mayor of":   "mayor",
		"flow through":      "city",
		"be published by":   "publisher",
		"be the capital of": "capital",
	}
	for phrase, pred := range checks {
		p, ok := d.Lookup(phrase)
		if !ok {
			t.Errorf("phrase %q not mined", phrase)
			continue
		}
		top := p.Entries[0].Path
		pid, _ := g.LookupIRI(storePred(pred))
		if len(top) != 1 || top[0].Pred != pid {
			t.Errorf("phrase %q top entry = %s, want <%s>", phrase, top.Render(g), pred)
		}
	}
	// The path phrase resolves to the length-3 uncle path.
	p, ok := d.Lookup("uncle of")
	if !ok {
		t.Fatal("uncle of not mined")
	}
	if len(p.Entries[0].Path) != 3 {
		t.Errorf("uncle of top entry = %s", p.Entries[0].Path.Render(g))
	}
}

func TestWorkloadShape(t *testing.T) {
	qs := Workload()
	if len(qs) != 99 {
		t.Fatalf("workload has %d questions, want 99 (QALD-3 size)", len(qs))
	}
	ids := map[string]bool{}
	cats := map[Category]int{}
	for _, q := range qs {
		if ids[q.ID] {
			t.Errorf("duplicate ID %s", q.ID)
		}
		ids[q.ID] = true
		if q.Text == "" {
			t.Errorf("%s: empty text", q.ID)
		}
		cats[q.Category]++
		if q.Bool != nil && len(q.Gold) > 0 {
			t.Errorf("%s: both boolean and gold set", q.ID)
		}
	}
	// Every stratum is populated.
	for _, c := range []Category{CatSimple, CatJoin, CatPath, CatTypeOnly, CatBoolean,
		CatAggregation, CatLinkHard, CatRelHard, CatOther} {
		if cats[c] == 0 {
			t.Errorf("category %s empty", c)
		}
	}
	// Aggregation is the largest failure stratum (Table 10 shape).
	if cats[CatAggregation] <= cats[CatLinkHard] || cats[CatAggregation] <= cats[CatRelHard] {
		t.Errorf("aggregation (%d) should dominate failures: %v", cats[CatAggregation], cats)
	}
}

func TestWorkloadGoldEntitiesExist(t *testing.T) {
	g := MustKB()
	for _, q := range Workload() {
		for _, term := range q.Gold {
			if _, ok := g.Lookup(term); !ok {
				// Aggregation gold may be a computed value (a count) that
				// no KB vertex carries.
				if q.Category == CatAggregation && term.IsLiteral() {
					continue
				}
				t.Errorf("%s: gold %v not in KB", q.ID, term)
			}
		}
	}
}

func TestSynthGraphDeterministic(t *testing.T) {
	a := NewSynthGraph(SynthOptions{Seed: 7, Entities: 200})
	b := NewSynthGraph(SynthOptions{Seed: 7, Entities: 200})
	if a.Graph.NumTriples() != b.Graph.NumTriples() {
		t.Fatal("same seed produced different graphs")
	}
	c := NewSynthGraph(SynthOptions{Seed: 8, Entities: 200})
	if a.Graph.NumTriples() == c.Graph.NumTriples() && a.Graph.NumTerms() == c.Graph.NumTerms() {
		t.Log("different seeds produced same shape (possible but unlikely)")
	}
	if len(a.Entities) != 200 {
		t.Fatalf("entities = %d", len(a.Entities))
	}
}

func TestSynthPhrasesSupportIsReal(t *testing.T) {
	sg := NewSynthGraph(SynthOptions{Seed: 3, Entities: 300})
	ps := NewSynthPhrases(sg, SynthPhraseOptions{Seed: 3, Phrases: 12, Support: 5, NoisePairs: 2})
	if len(ps.Sets) != 12 {
		t.Fatalf("sets = %d", len(ps.Sets))
	}
	for _, set := range ps.Sets {
		gold := ps.Gold[set.Phrase]
		// The first Support pairs must be connected by the gold path.
		connected := 0
		for _, pair := range set.Pairs {
			if _, ok := dict.PathConnects(sg.Graph.FrozenView(), pair[0], pair[1], gold); ok {
				connected++
			}
		}
		if connected < 5 {
			t.Errorf("phrase %q: only %d/%d pairs realize the gold path",
				set.Phrase, connected, len(set.Pairs))
		}
	}
}

func TestPrecisionAtKCleanExtraction(t *testing.T) {
	// With perfect extraction the miner recovers every planted mapping.
	sg := NewSynthGraph(SynthOptions{Seed: 11, Entities: 400, Predicates: 24, AvgDegree: 3})
	ps := NewSynthPhrases(sg, SynthPhraseOptions{Seed: 11, Phrases: 30, Support: 8, MaxGoldLen: 3})
	d, _ := dict.Mine(sg.Graph, ps.Sets, dict.MineOptions{MaxPathLen: 4, TopK: 3})
	p := PrecisionAtK(d, ps, 3)
	t.Logf("P@3 by length (clean): %v", p)
	if p[1] < 0.9 || p[2] < 0.9 || p[3] < 0.9 {
		t.Errorf("clean extraction should be recovered: %v", p)
	}
}

func TestPrecisionAtKDegradesWithLength(t *testing.T) {
	// Exp 1's headline shape: under imperfect extraction (per-hop gold
	// fraction), P@3 degrades as gold path length grows.
	sg := NewSynthGraph(SynthOptions{Seed: 11, Entities: 300, Predicates: 5, AvgDegree: 8})
	ps := NewSynthPhrases(sg, SynthPhraseOptions{
		Seed: 11, Phrases: 40, Support: 12, MaxGoldLen: 4, GoldFraction: 0.6,
	})
	d, _ := dict.Mine(sg.Graph, ps.Sets, dict.MineOptions{MaxPathLen: 4, TopK: 3})
	p := PrecisionAtK(d, ps, 3)
	t.Logf("P@3 by length (gf=0.6): %v", p)
	if p[1] < 0.8 {
		t.Errorf("P@3 length 1 = %.2f, want high", p[1])
	}
	if p[4] >= p[1] {
		t.Errorf("P@3 should degrade from length 1 (%.2f) to 4 (%.2f)", p[1], p[4])
	}
}
