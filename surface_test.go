package gqa_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// testOnlySurface is the first allowlist of TestNoTestOnlySurface: the
// exported functions, methods and variables that only _test.go files name,
// each with the reason it is there. An entry is a decision; anything else
// the test finds is drift.
var testOnlySurface = map[string]string{
	"gqa.SaveGraph": "library API: the N-Triples counterpart of SaveFrozenSnapshot (gqa-gen writes its files through internal/rdf)",

	// Test seams: there so a test can arm, observe or wait, not for code.
	"internal/admission.Controller.InFlight":   "lets an overload test wait for a slot to be held instead of sleeping",
	"internal/admission.Controller.QueueDepth": "lets an overload test wait for the queue to fill instead of sleeping",
	"internal/faultpoint.Clear":                "fault injection is armed and disarmed by tests only",
	"internal/faultpoint.Hits":                 "asserts a fault point was reached",
	"internal/faultpoint.Reset":                "fault injection is armed and disarmed by tests only",
	"internal/faultpoint.Set":                  "fault injection is armed and disarmed by tests only",
	"internal/flight.Recorder.Sync":            "waits for the asynchronous ingest so a test can read what it recorded",
	"internal/serve.Server.Draining":           "lets the drain test see the flag BeginDrain set",

	// Fixtures and references the tests compare the engine against.
	"internal/bench.MustKB":          "BuildKB that panics: the fixture of tests and Go benchmarks",
	"internal/bench.NewCinemaKB":     "the cinema row of TestWorkloadIdentity and TestCinemaGold: match-local's shape at test size",
	"internal/store.Graph.HasTriple": "builder read kept as a reference: the N-Triples round trip checks membership through it",
	"internal/store.Graph.HasType":   "builder read kept as a reference: the matcher's brute-force reference accepts class candidates through it",
	"internal/store.Graph.TypesOf":   "builder read kept as a reference: the file-format differential compares types through it",

	// The paper's §3 maintenance paragraph: implemented and tested, wired
	// into no binary yet.
	"internal/dict.Maintainer.AddPhrase":        "§3 dictionary maintenance",
	"internal/dict.Maintainer.PredicateAdded":   "§3 dictionary maintenance",
	"internal/dict.Maintainer.PredicateRemoved": "§3 dictionary maintenance",
	"internal/store.Graph.RemovePredicate":      "§3 dictionary maintenance: the graph mutation PredicateRemoved follows",
	"internal/store.Graph.RemoveTriple":         "term-level Remove, the counterpart of Add",

	// Conveniences whose only callers today are tests.
	"internal/core.Result.AnswerLabels":     "answers as labels; the facade builds its own from IDs",
	"internal/dict.Dictionary.LookupLemmas": "lookup by lemma key; the pipeline finds phrases through Probe and SlotsWith",
	"internal/nlp.DepTree.SubtreeText":      "a subtree's surface text, for parser tests",
	"internal/obs.Histogram.Quantile":       "a live histogram's quantile; code takes QuantileFromCounts over deltas",
	"internal/rdf.ParseString":              "Decoder over a string, for parser tests and fuzz seeds",
	"internal/rdf.Term.IsBlank":             "completes IsIRI/IsLiteral",
	"internal/sparql.EvalString":            "Parse + Eval in one call, for evaluator tests",
	"internal/sparql.SortRows":              "deterministic row order for evaluator tests",
}

// unreferencedSurface is the second allowlist: exported surface that no
// file of the module names at all, each with the interface it satisfies for
// a caller outside the module (error, http.Handler, fmt.Stringer,
// sort.Interface). Anything else nothing names is dead. It is empty today:
// every Error, ServeHTTP and String there is is also called by name.
var unreferencedSurface = map[string]string{}

// TestNoTestOnlySurface fails when an exported function, method or
// package-level variable of the root package or of a package under
// internal/ is referenced only from _test.go files and is not on
// testOnlySurface, or is referenced from nowhere — not code, not tests, not
// benchmark/, cmd/ or examples/ — and is not on unreferencedSurface: so
// that surface kept for tests or for an interface is a decision somebody
// wrote down, and surface with no reader at all goes. It also fails on an
// allowlist entry that is stale: gone, or used after all.
//
// It reads syntax only (go/parser, no type information): a package-level
// function or variable counts as used where code names it through an import
// of its package or, unqualified, inside its own package; a method counts as
// used wherever code calls its name on any value (a call, not a selection:
// a struct field of the same name is no use of it). The second rule is
// loose — a method sharing its name with a called one passes unseen, a
// method only ever taken as a value needs an entry — and never wrong the
// other way. benchmark/, cmd/ and examples/ count as code.
func TestNoTestOnlySurface(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct{ pkgDir, name string } // name: "Func" or "Type.Method"
	var decls []decl
	// What code (files not ending in _test.go) and tests refer to: package
	// functions and variables as importPath+"."+name, methods as "."+name.
	used := map[bool]map[string]bool{false: {}, true: {}}

	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != "." || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		isTest := strings.HasSuffix(path, "_test.go")
		importPath := "gqa"
		if dir != "." {
			importPath = "gqa/" + dir
		}
		imports := map[string]string{} // local name → import path
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = p
		}
		if !isTest && f.Name.Name != "main" && (dir == "." || strings.HasPrefix(dir, "internal/")) {
			for _, d := range f.Decls {
				if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					for _, spec := range gd.Specs {
						for _, id := range spec.(*ast.ValueSpec).Names {
							if id.IsExported() {
								decls = append(decls, decl{dir, id.Name})
							}
						}
					}
				}
				fn, ok := d.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() {
					continue
				}
				name := fn.Name.Name
				if fn.Recv != nil {
					recv := fn.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if idx, ok := recv.(*ast.IndexExpr); ok {
						recv = idx.X
					}
					id, ok := recv.(*ast.Ident)
					if !ok || !id.IsExported() {
						continue
					}
					name = id.Name + "." + name
				}
				decls = append(decls, decl{dir, name})
			}
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				// Everything but the declared name, which is no use of it.
				if n.Recv != nil {
					ast.Inspect(n.Recv, visit)
				}
				ast.Inspect(n.Type, visit)
				if n.Body != nil {
					ast.Inspect(n.Body, visit)
				}
				return false
			case *ast.ValueSpec:
				// Likewise: a declared name is no use of it (a local
				// variable's neither, which loses nothing).
				if n.Type != nil {
					ast.Inspect(n.Type, visit)
				}
				for _, v := range n.Values {
					ast.Inspect(v, visit)
				}
				return false
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
					used[isTest]["."+sel.Sel.Name] = true
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					used[isTest][imports[x.Name]+"."+n.Sel.Name] = true
					return false
				}
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				used[isTest][importPath+"."+n.Name] = true
			}
			return true
		}
		ast.Inspect(f, visit)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Allowlist by who names the declaration: tests only, or nobody.
	lists := map[bool]map[string]string{true: testOnlySurface, false: unreferencedSurface}
	found := map[string]bool{}
	for _, d := range decls {
		key := "gqa." + d.name
		ref := "gqa." + d.name
		if d.pkgDir != "." {
			key = d.pkgDir + "." + d.name
			ref = "gqa/" + d.pkgDir + "." + d.name
		}
		if i := strings.IndexByte(d.name, '.'); i >= 0 {
			ref = d.name[i:] // a method: any call of its name
		}
		inCode, inTests := used[false][ref], used[true][ref]
		if inCode {
			continue
		}
		if lists[inTests][key] != "" {
			found[key] = true
		} else if inTests {
			t.Errorf("%s is exported but only _test.go files use it: delete it, unexport it, or add it to testOnlySurface with the reason it stays", key)
		} else {
			t.Errorf("%s is exported but nothing in the module names it: delete it, or add it to unreferencedSurface with the interface it is there for", key)
		}
	}
	for _, list := range lists {
		for key := range list {
			if !found[key] {
				t.Errorf("the allowlist names %s, which is gone or is used otherwise by now: drop or move the entry", key)
			}
		}
	}
}
