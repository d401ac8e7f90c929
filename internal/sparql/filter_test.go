package sparql

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"gqa/internal/rdf"
	"gqa/internal/store"
)

func ageGraph(t testing.TB) *store.Graph {
	t.Helper()
	g := store.New()
	src := strings.Join([]string{
		`<http://dbpedia.org/resource/A> <http://dbpedia.org/ontology/age> "24"^^<http://www.w3.org/2001/XMLSchema#double> .`,
		`<http://dbpedia.org/resource/B> <http://dbpedia.org/ontology/age> "27"^^<http://www.w3.org/2001/XMLSchema#double> .`,
		`<http://dbpedia.org/resource/C> <http://dbpedia.org/ontology/age> "31"^^<http://www.w3.org/2001/XMLSchema#double> .`,
		`<http://dbpedia.org/resource/A> <http://dbpedia.org/ontology/team> <http://dbpedia.org/resource/T> .`,
		`<http://dbpedia.org/resource/B> <http://dbpedia.org/ontology/team> <http://dbpedia.org/resource/T> .`,
		`<http://dbpedia.org/resource/C> <http://dbpedia.org/ontology/team> <http://dbpedia.org/resource/U> .`,
	}, "\n")
	if err := g.Load(strings.NewReader(src)); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFilterNumericComparison(t *testing.T) {
	g := ageGraph(t)
	res, err := evalString(g, `SELECT ?p WHERE { ?p dbo:age ?a . FILTER(?a > 25) }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	res, err = evalString(g, `SELECT ?p WHERE { ?p dbo:age ?a . FILTER(?a <= 24) }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0]["p"].LocalName() != "A" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestFilterInequalityOnTerms(t *testing.T) {
	g := ageGraph(t)
	res, err := evalString(g, `SELECT ?x ?y WHERE { ?x dbo:team ?t . ?y dbo:team ?t . FILTER(?x != ?y) }`)
	if err != nil {
		t.Fatal(err)
	}
	// A/B share T in both orders.
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestOrderByAscDesc(t *testing.T) {
	g := ageGraph(t)
	res, err := evalString(g, `SELECT ?p WHERE { ?p dbo:age ?a } ORDER BY DESC(?a) LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0]["p"].LocalName() != "C" {
		t.Fatalf("rows = %v", res.Rows)
	}
	// The paper's canonical aggregation rewrite: youngest = ORDER BY ASC
	// OFFSET 0 LIMIT 1.
	res, err = evalString(g, `SELECT ?p WHERE { ?p dbo:age ?a } ORDER BY ?a OFFSET 0 LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0]["p"].LocalName() != "A" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestOrderByUnprojectedKey(t *testing.T) {
	g := ageGraph(t)
	res, err := evalString(g, `SELECT ?p WHERE { ?p dbo:age ?a } ORDER BY ASC(?a)`)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{}
	for _, r := range res.Rows {
		names = append(names, r["p"].LocalName())
	}
	if strings.Join(names, ",") != "A,B,C" {
		t.Fatalf("order = %v", names)
	}
}

func TestFilterParseErrors(t *testing.T) {
	for _, src := range []string{
		`SELECT ?p WHERE { ?p dbo:age ?a . FILTER ?a > 25 }`,
		`SELECT ?p WHERE { ?p dbo:age ?a . FILTER(?a >) }`,
		`SELECT ?p WHERE { ?p dbo:age ?a . FILTER(?a ! 25) }`,
		`SELECT ?p WHERE { ?p dbo:age ?a } ORDER ?a`,
		`SELECT ?p WHERE { ?p dbo:age ?a } ORDER BY`,
		`SELECT ?p WHERE { ?p dbo:age ?a } ORDER BY DESC ?a`,
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestFilterStringRoundTrip(t *testing.T) {
	src := `SELECT ?p WHERE { ?p dbo:age ?a . FILTER(?a > 25) } ORDER BY DESC(?a) LIMIT 2`
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := Parse(q.String())
	if err != nil {
		t.Fatalf("rendered query does not reparse: %v\n%s", err, q.String())
	}
	if q.String() != q2.String() {
		t.Fatalf("unstable rendering:\n%s\n%s", q.String(), q2.String())
	}
}

// bruteJoin evaluates a BGP by unfiltered nested loops over all triples —
// the reference for the property test.
func bruteJoin(g *store.Graph, pats []Pattern) []map[string]store.ID {
	triples := []store.Spo{}
	g.Match(store.Any, store.Any, store.Any, func(t store.Spo) bool {
		triples = append(triples, t)
		return true
	})
	var out []map[string]store.ID
	binding := map[string]store.ID{}
	var rec func(i int)
	rec = func(i int) {
		if i == len(pats) {
			cp := map[string]store.ID{}
			for k, v := range binding {
				cp[k] = v
			}
			out = append(out, cp)
			return
		}
		p := pats[i]
		for _, t := range triples {
			var bound []string
			ok := true
			try := func(term Term, id store.ID) {
				if !ok {
					return
				}
				if term.IsVar() {
					if prev, ex := binding[term.Var]; ex {
						if prev != id {
							ok = false
						}
						return
					}
					binding[term.Var] = id
					bound = append(bound, term.Var)
					return
				}
				if tid, ex := g.Lookup(term.Const); !ex || tid != id {
					ok = false
				}
			}
			try(p.S, t.S)
			try(p.P, t.P)
			try(p.O, t.O)
			if ok {
				rec(i + 1)
			}
			for _, v := range bound {
				delete(binding, v)
			}
		}
	}
	rec(0)
	return out
}

func bindingKey(vars []string, b map[string]store.ID) string {
	parts := make([]string, len(vars))
	for i, v := range vars {
		parts[i] = fmt.Sprintf("%s=%d", v, b[v])
	}
	return strings.Join(parts, ";")
}

// TestQuickEvalAgreesWithBruteJoin: the planner/backtracker returns
// exactly the brute-force solution multiset.
func TestQuickEvalAgreesWithBruteJoin(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := store.New()
		nv := 3 + r.Intn(5)
		var verts []rdf.Term
		for i := 0; i < nv; i++ {
			verts = append(verts, rdf.Resource(fmt.Sprintf("v%d", i)))
		}
		var preds []rdf.Term
		for i := 0; i < 1+r.Intn(3); i++ {
			preds = append(preds, rdf.Ontology(fmt.Sprintf("p%d", i)))
		}
		ne := r.Intn(20)
		for i := 0; i < ne; i++ {
			g.Add(rdf.T(verts[r.Intn(nv)], preds[r.Intn(len(preds))], verts[r.Intn(nv)]))
		}
		// Random BGP of 1–3 patterns over variables x, y, z and constants.
		varNames := []string{"x", "y", "z"}
		term := func(pred bool) Term {
			if r.Intn(2) == 0 {
				return Term{Var: varNames[r.Intn(len(varNames))]}
			}
			if pred {
				return Term{Const: preds[r.Intn(len(preds))]}
			}
			return Term{Const: verts[r.Intn(nv)]}
		}
		np := 1 + r.Intn(3)
		var pats []Pattern
		for i := 0; i < np; i++ {
			pats = append(pats, Pattern{S: term(false), P: term(true), O: term(false)})
		}
		q := &Query{Kind: KindSelect, Patterns: pats}
		q.Vars = q.AllVars()
		if len(q.Vars) == 0 {
			return true // constant-only pattern; nothing to compare
		}
		res, err := Eval(g, q)
		if err != nil {
			t.Logf("seed %d: eval error %v", seed, err)
			return false
		}
		ref := bruteJoin(g, pats)

		want := map[string]int{}
		for _, b := range ref {
			want[bindingKey(q.Vars, b)]++
		}
		got := map[string]int{}
		for _, row := range res.Rows {
			parts := make([]string, len(q.Vars))
			for i, v := range q.Vars {
				id, _ := g.Lookup(row[v])
				parts[i] = fmt.Sprintf("%s=%d", v, id)
			}
			got[strings.Join(parts, ";")]++
		}
		if len(want) != len(got) {
			t.Logf("seed %d: %d distinct solutions, want %d", seed, len(got), len(want))
			return false
		}
		for k, n := range want {
			if got[k] != n {
				t.Logf("seed %d: key %s count %d want %d", seed, k, got[k], n)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
