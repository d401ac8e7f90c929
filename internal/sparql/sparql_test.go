package sparql

import (
	"strings"
	"testing"

	"gqa/internal/rdf"
	"gqa/internal/store"
)

// evalString parses and evaluates in one step.
func evalString(g *store.Graph, src string) (*Result, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Eval(g, q)
}

func movieGraph(t testing.TB) *store.Graph {
	t.Helper()
	g := store.New()
	src := strings.Join([]string{
		`<http://dbpedia.org/resource/Philadelphia_(film)> <http://dbpedia.org/ontology/starring> <http://dbpedia.org/resource/Antonio_Banderas> .`,
		`<http://dbpedia.org/resource/Philadelphia_(film)> <http://dbpedia.org/ontology/director> <http://dbpedia.org/resource/Jonathan_Demme> .`,
		`<http://dbpedia.org/resource/Philadelphia_(film)> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://dbpedia.org/ontology/Film> .`,
		`<http://dbpedia.org/resource/Desperado> <http://dbpedia.org/ontology/starring> <http://dbpedia.org/resource/Antonio_Banderas> .`,
		`<http://dbpedia.org/resource/Desperado> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://dbpedia.org/ontology/Film> .`,
		`<http://dbpedia.org/resource/Melanie_Griffith> <http://dbpedia.org/ontology/spouse> <http://dbpedia.org/resource/Antonio_Banderas> .`,
		`<http://dbpedia.org/resource/Antonio_Banderas> <http://www.w3.org/2000/01/rdf-schema#label> "Antonio Banderas" .`,
	}, "\n")
	if err := g.Load(strings.NewReader(src)); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestParseSelect(t *testing.T) {
	q, err := Parse(`SELECT DISTINCT ?f WHERE { ?f dbo:starring dbr:Antonio_Banderas . ?f a dbo:Film } LIMIT 5 OFFSET 1`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Kind != KindSelect || !q.Distinct || len(q.Vars) != 1 || q.Vars[0] != "f" {
		t.Fatalf("header parsed wrong: %+v", q)
	}
	if len(q.Patterns) != 2 || q.Limit != 5 || q.Offset != 1 {
		t.Fatalf("body parsed wrong: %+v", q)
	}
	if q.Patterns[1].P.Const.Value() != rdf.RDFType {
		t.Fatalf("'a' not expanded: %v", q.Patterns[1])
	}
}

func TestParseAskAndPrefix(t *testing.T) {
	q, err := Parse(`PREFIX ex: <http://example.org/> ASK WHERE { ex:A ex:p ex:B . }`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Kind != KindAsk || len(q.Patterns) != 1 {
		t.Fatalf("%+v", q)
	}
	if q.Patterns[0].S.Const.Value() != "http://example.org/A" {
		t.Fatalf("prefix expansion: %v", q.Patterns[0].S)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,
		`SELECT WHERE { ?s ?p ?o }`,
		`SELECT ?s WHERE { ?s ?p }`,
		`SELECT ?s WHERE { ?s ?p ?o `,
		`SELECT ?s { ?s unknown:thing ?o }`,
		`FOO ?s WHERE { ?s ?p ?o }`,
		`SELECT ?s WHERE { ?s ?p ?o } LIMIT x`,
		`SELECT ?s WHERE { ?s ?p ?o } garbage`,
		`SELECT ?missing WHERE { ?s ?p ?o } `, // eval-time error, not parse
	}
	for _, c := range cases[:8] {
		if _, err := Parse(c); err == nil {
			t.Errorf("Parse(%q) should fail", c)
		}
	}
	g := movieGraph(t)
	if _, err := evalString(g, cases[8]); err == nil {
		t.Error("projection of unused variable should fail at eval")
	}
}

func TestEvalBasicJoin(t *testing.T) {
	g := movieGraph(t)
	res, err := evalString(g, `SELECT ?f WHERE { ?f dbo:starring dbr:Antonio_Banderas . ?f a dbo:Film }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows: %v", len(res.Rows), res.Rows)
	}
	if a, b := res.Rows[0]["f"].LocalName(), res.Rows[1]["f"].LocalName(); min(a, b) != "Desperado" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestEvalMultiHopJoin(t *testing.T) {
	g := movieGraph(t)
	res, err := evalString(g, `SELECT ?who WHERE { ?who dbo:spouse ?actor . ?f dbo:starring ?actor . ?f dbo:director dbr:Jonathan_Demme }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0]["who"].LocalName() != "Melanie_Griffith" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestEvalDistinctAndLimit(t *testing.T) {
	g := movieGraph(t)
	res, err := evalString(g, `SELECT DISTINCT ?a WHERE { ?f dbo:starring ?a }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("distinct failed: %v", res.Rows)
	}
	res, err = evalString(g, `SELECT ?f WHERE { ?f dbo:starring ?a } LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("limit failed: %v", res.Rows)
	}
	res, err = evalString(g, `SELECT ?f WHERE { ?f dbo:starring ?a } OFFSET 5`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("offset failed: %v", res.Rows)
	}
}

func TestEvalAsk(t *testing.T) {
	g := movieGraph(t)
	res, err := evalString(g, `ASK { dbr:Melanie_Griffith dbo:spouse dbr:Antonio_Banderas }`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Boolean {
		t.Fatal("ASK should be true")
	}
	res, err = evalString(g, `ASK { dbr:Melanie_Griffith dbo:spouse dbr:Jonathan_Demme }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Boolean {
		t.Fatal("ASK should be false")
	}
}

func TestEvalUnknownConstant(t *testing.T) {
	g := movieGraph(t)
	res, err := evalString(g, `SELECT ?x WHERE { ?x dbo:starring dbr:Nobody_Here }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("rows for unknown entity: %v", res.Rows)
	}
}

func TestEvalSelectStar(t *testing.T) {
	g := movieGraph(t)
	res, err := evalString(g, `SELECT * WHERE { ?f dbo:director ?d }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Vars) != 2 || len(res.Rows) != 1 {
		t.Fatalf("star projection: vars %v rows %v", res.Vars, res.Rows)
	}
}

func TestEvalSharedVariableConsistency(t *testing.T) {
	g := movieGraph(t)
	// ?x both subject and object: no triple satisfies x starring x.
	res, err := evalString(g, `SELECT ?x WHERE { ?x dbo:starring ?x }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("self-join rows: %v", res.Rows)
	}
}

func TestEvalLiteralObject(t *testing.T) {
	g := movieGraph(t)
	res, err := evalString(g, `SELECT ?who WHERE { ?who rdfs:label "Antonio Banderas" }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0]["who"].LocalName() != "Antonio_Banderas" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestQueryStringRoundTrip(t *testing.T) {
	src := `SELECT DISTINCT ?f WHERE { ?f dbo:starring dbr:Antonio_Banderas . } LIMIT 3`
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := Parse(q.String())
	if err != nil {
		t.Fatalf("rendered query does not reparse: %v\n%s", err, q.String())
	}
	if q2.String() != q.String() {
		t.Fatalf("unstable rendering:\n%s\n%s", q.String(), q2.String())
	}
}

// TestTermRender: a query's render writes a variable as ?name, an IRI in
// angle brackets, a literal in N-Triples syntax with its language tag or
// datatype.
func TestTermRender(t *testing.T) {
	for _, c := range []struct {
		term Term
		want string
	}{
		{Term{Var: "x"}, "?x"},
		{Term{Const: rdf.Resource("Berlin")}, "<http://dbpedia.org/resource/Berlin>"},
		{Term{Const: rdf.NewLangLiteral("Berlin", "de")}, `"Berlin"@de`},
		{Term{Const: rdf.NewTypedLiteral("3", rdf.XSDInteger)}, `"3"^^<` + rdf.XSDInteger + `>`},
		{Term{Const: rdf.NewLiteral(`say "hi"`)}, `"say \"hi\""`},
	} {
		var b strings.Builder
		c.term.writeTo(&b)
		if b.String() != c.want {
			t.Errorf("%#v writes %q, want %q", c.term, b.String(), c.want)
		}
	}
}
