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
// and the option fields that only _test.go files set, each with the reason
// it is there. An entry is a decision; anything else the test finds is
// drift.
var testOnlySurface = map[string]string{
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
	"internal/bench.MustKB":      "BuildKB that panics: the fixture of tests and Go benchmarks",
	"internal/bench.NewCinemaKB": "the cinema row of TestWorkloadIdentity and TestCinemaGold: match-local's shape at test size",

	// The paper's §3 maintenance paragraph: implemented and tested, wired
	// into no binary yet.
	"internal/dict.Maintainer.AddPhrase":        "§3 dictionary maintenance",
	"internal/dict.Maintainer.PredicateAdded":   "§3 dictionary maintenance",
	"internal/dict.Maintainer.PredicateRemoved": "§3 dictionary maintenance",
	"internal/store.Graph.RemovePredicate":      "§3 dictionary maintenance: the graph mutation PredicateRemoved follows",
	"internal/store.Graph.RemoveTriple":         "term-level Remove, the counterpart of Add",

	// Option fields only tests set.
	"gqa.Options.Budget":                        "the robustness contract (README \"Budgets\"); ROADMAP 5(c) decides the budget and shed machinery behind it",
	"internal/store.RemoteOptions.DialTimeout":  "fault tests shorten the shard-RPC client's timings; ROADMAP 5(c) decides the retry and cooldown machinery",
	"internal/store.RemoteOptions.CallTimeout":  "fault tests shorten the shard-RPC client's timings; ROADMAP 5(c) decides the retry and cooldown machinery",
	"internal/store.RemoteOptions.Retries":      "fault tests shorten the shard-RPC client's timings; ROADMAP 5(c) decides the retry and cooldown machinery",
	"internal/store.RemoteOptions.RetryBackoff": "fault tests shorten the shard-RPC client's timings; ROADMAP 5(c) decides the retry and cooldown machinery",
	"internal/store.RemoteOptions.DownCooldown": "fault tests shorten the shard-RPC client's timings; ROADMAP 5(c) decides the retry and cooldown machinery",
}

// unreferencedSurface is the second allowlist: exported surface that no
// file of the module names at all, each with the interface it satisfies for
// a caller outside the module (error, http.Handler, fmt.Stringer,
// sort.Interface), and option fields (or field-less option structs) that
// nothing sets, each with the reason it stays. Anything else nothing names
// or sets is dead. Every Error, ServeHTTP and String there is is also called
// by name.
var unreferencedSurface = map[string]string{
	"internal/linker.Options": "linker.New's signature, which benchmark/ compiles against: it goes with ROADMAP 7(f)",
}

// TestNoTestOnlySurface fails when an exported function, method or
// package-level variable of the root package or of a package under
// internal/ is referenced only from _test.go files and is not on
// testOnlySurface, or is referenced from nowhere — not code, not tests, not
// benchmark/, cmd/ or examples/ — and is not on unreferencedSurface: so
// that surface kept for tests or for an interface is a decision somebody
// wrote down, and surface with no reader at all goes. It also fails on an
// allowlist entry that is stale: gone, or used after all.
//
// It holds option knobs to the same two lists: an exported field of an
// exported struct whose name ends in Options or Config counts as used only
// where code sets it — by a keyed literal of its type (a literal whose type
// is elided inside a typed one included), or by an assignment x.Field = …
// in a file that imports the field's package (inside its own package an
// assignment fills in a default) — so a knob only tests turn, or none, is a
// decision somebody wrote down too. A field-less option struct needs an
// entry of its own. The test logs the number of option fields; make loc
// prints it.
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
	// Option fields ("Type.Field", or "Type" alone for a struct with no
	// field) and what code and tests set: a keyed literal's fields as
	// importPath+".Type.Field", an assignment x.Field = … as
	// importPath+".*.Field" for every package its file imports.
	var fields []decl
	setBy := map[bool]map[string]bool{false: {}, true: {}}

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
				if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.TYPE {
					for _, spec := range gd.Specs {
						ts := spec.(*ast.TypeSpec)
						st, ok := ts.Type.(*ast.StructType)
						if !ok || !ts.Name.IsExported() ||
							!strings.HasSuffix(ts.Name.Name, "Options") && !strings.HasSuffix(ts.Name.Name, "Config") {
							continue
						}
						n := len(fields)
						for _, fl := range st.Fields.List {
							for _, id := range fl.Names {
								if id.IsExported() {
									fields = append(fields, decl{dir, ts.Name.Name + "." + id.Name})
								}
							}
						}
						if len(fields) == n {
							fields = append(fields, decl{dir, ts.Name.Name})
						}
					}
				}
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
		// typeName resolves a literal's type expression to importPath+".Type".
		var typeName func(e ast.Expr) string
		typeName = func(e ast.Expr) string {
			switch e := e.(type) {
			case *ast.Ident:
				return importPath + "." + e.Name
			case *ast.StarExpr:
				return typeName(e.X)
			case *ast.SelectorExpr:
				if x, ok := e.X.(*ast.Ident); ok && imports[x.Name] != "" {
					return imports[x.Name] + "." + e.Sel.Name
				}
			}
			return ""
		}
		// setKeys records the keys of a literal of type typ, and of the
		// literals inside it whose type is elided ([]Options{{TopK: 3}}).
		var setKeys func(lit *ast.CompositeLit, typ string)
		setKeys = func(lit *ast.CompositeLit, typ string) {
			elem := ""
			switch t := lit.Type.(type) {
			case *ast.ArrayType:
				elem = typeName(t.Elt)
			case *ast.MapType:
				elem = typeName(t.Value)
			case nil:
			default:
				typ = typeName(t)
			}
			for _, e := range lit.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok && elem == "" {
						setBy[isTest][typ+"."+id.Name] = true
					}
					e = kv.Value
				}
				if inner, ok := e.(*ast.CompositeLit); ok && inner.Type == nil {
					setKeys(inner, elem)
				}
			}
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if n.Type != nil {
					setKeys(n, "")
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						for _, p := range imports {
							setBy[isTest][p+".*."+sel.Sel.Name] = true
						}
					}
				}
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
	// An option field counts as used where code sets it; a struct with no
	// field is a knob nothing can set.
	n := 0
	for _, f := range fields {
		pkg, key := "gqa", "gqa."+f.name
		if f.pkgDir != "." {
			pkg, key = "gqa/"+f.pkgDir, f.pkgDir+"."+f.name
		}
		_, field, ok := strings.Cut(f.name, ".")
		if !ok {
			if unreferencedSurface[key] != "" {
				found[key] = true
			} else {
				t.Errorf("option struct %s has no field: delete it, or add it to unreferencedSurface with the reason it stays", key)
			}
			continue
		}
		n++
		inCode := setBy[false][pkg+"."+f.name] || setBy[false][pkg+".*."+field]
		inTests := setBy[true][pkg+"."+f.name] || setBy[true][pkg+".*."+field]
		if inCode {
			continue
		}
		if lists[inTests][key] != "" {
			found[key] = true
		} else if inTests {
			t.Errorf("option field %s is set only by _test.go files: make it a constant (a test-only knob an unexported seam), or add it to testOnlySurface with the reason it stays", key)
		} else {
			t.Errorf("option field %s is set by nothing: make it a constant, or add it to unreferencedSurface with the reason it stays", key)
		}
	}
	// make loc prints this line, so the count and the gate share one rule.
	t.Logf("option fields: %d", n)
	for _, list := range lists {
		for key := range list {
			if !found[key] {
				t.Errorf("the allowlist names %s, which is gone or is used otherwise by now: drop or move the entry", key)
			}
		}
	}
}
