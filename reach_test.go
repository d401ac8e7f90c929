package gqa_test

import (
	"bufio"
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// reachLedger is the reach ledger: each non-test function outside cmd/,
// examples/ and benchmark/ that no run of make reach executes, with the
// reason it stays. A function testOnlySurface already names keeps its
// reason there and has no row here. A row is a decision; a listed function
// with neither is dead, and is deleted.
var reachLedger = map[string]string{
	// Safety code, reached only under overload or a fault. ROADMAP 5(c)
	// decides the shed tiers and the breaker.
	"internal/admission.ctxReason":                      "the admission reject path: a waiter whose context ends",
	"internal/admission.Controller.removeLocked":        "the admission reject path: a waiter leaves the queue",
	"internal/admission.Controller.drainEstimateLocked": "the admission reject path: a queue-full refusal's Retry-After",
	"internal/admission.RejectError.Error":              "the admission reject path: the refusal's message",
	"internal/serve.jsonError":                          "an error response",
	"internal/serve.statusFor":                          "an error response: its HTTP status",
	"internal/budget.Tracker.fail":                      "a budget limit reached",
	"internal/budget.Tracker.FailShardUnavailable":      "a budget limit reached: a shard down",
	"gqa.Budget.Shed":                                   "the shed tiers (ROADMAP 5(c))",
	"gqa.shedLimit":                                     "the shed tiers (ROADMAP 5(c))",
	"gqa.shedDuration":                                  "the shed tiers (ROADMAP 5(c))",
	"gqa.PipelineError.Error":                           "a panic recovered inside the pipeline",
	"internal/store.shardConnPool.markDown":             "the per-shard breaker (ROADMAP 5(c))",
	"internal/store.rpcReader.degrade":                  "the per-shard breaker (ROADMAP 5(c)): a failed read degrades the request",
	"internal/store.errServer.Error":                    "a shard's error reply",
	"internal/store.shardErrResp":                       "a shard's error reply",
	"internal/flight.Recorder.rotateLocked":             "the flight log past its size cap",

	// Checks on input from outside: a malformed file or query is refused
	// with a positioned error.
	"internal/rdf.ParseError.Error":  "a malformed N-Triples line",
	"internal/rdf.lineParser.errf":   "a malformed N-Triples line",
	"internal/rdf.lineParser.errAt":  "a malformed N-Triples line",
	"internal/rdf.Kind.String":       "a malformed N-Triples line: the wrong kind of term, named",
	"internal/sparql.qparser.errf":   "a malformed SPARQL query",
	"internal/store.partReader.fail": "a corrupt GQAFRZ1 file",
	"internal/store.Graph.NumShards": "a shard export of an unsharded graph, refused",

	// Fault injection (faultpoint's switches are on testOnlySurface).
	"internal/faultpoint.hit": "a fault point a test armed",

	// Input that no fixture holds.
	"internal/rdf.lineParser.blank":  "an N-Triples blank node",
	"internal/rdf.isTermEnd":         "an N-Triples blank node",
	"internal/rdf.NewBlank":          "an N-Triples blank node",
	"internal/rdf.NewLangLiteral":    "a language-tagged N-Triples literal",
	"internal/rdf.isAlpha":           "a language-tagged N-Triples literal",
	"internal/rdf.isAlnum":           "a language-tagged N-Triples literal",
	"internal/sparql.qparser.filter": "SPARQL FILTER",
	"internal/sparql.evalFilter":     "SPARQL FILTER",
	"internal/sparql.lexLiteral":     "a string literal in a SPARQL query",

	// The references the differentials compare against.
	"internal/store.Graph.Has":      "a never-frozen Graph's read",
	"internal/store.Graph.Entities": "a never-frozen Graph's read",
	"internal/bench.cinemaName":     "the cinema fixture (NewCinemaKB)",

	// Question and Q^S shapes no workload has.
	"internal/core.matcher.startComponent": "a Q^S of two components",
	"internal/core.matcher.liveWalks":      "a class unrolled to several seeds whose path walks run dry",
	"internal/dict.Walker.Connects":        "a path edge whose two ends are both bound",
	"internal/core.firstNoun":              "rule 4's noun fallback (\"Is he the mayor of?\")",
	"internal/nlp.parser.nextChunkAfter":   "a clause with no verb",

	// §3 maintenance (standing rule) and the parked write path.
	"internal/dict.Maintainer.Dictionary": "§3 dictionary maintenance",
	"internal/dict.pathUses":              "§3 dictionary maintenance",
	"internal/store.Graph.Remove":         "the parked write path",
	"internal/store.removeFirst":          "the parked write path",

	// store.View methods that wait for ROADMAP 3(a), which narrows it.
	"internal/store.Snapshot.NumTerms":  "View: only startComponent reads it",
	"internal/store.Snapshot.OutDegree": "View",
	"internal/store.Snapshot.Degree":    "View",
	"internal/store.rpcReader.inSpan":   "View over the wire: InDegree and Degree",

	// The SPARQL printer. Since ResolvedSPARQL writes its text straight
	// from the match block, no run prints a parsed query; the tests hold
	// that text to this syntax by parsing it back (ROADMAP 12).
	"internal/sparql.Query.String":    "the SPARQL syntax ResolvedSPARQL writes, checked by parsing its text back",
	"internal/sparql.Term.writeTo":    "the SPARQL syntax ResolvedSPARQL writes, checked by parsing its text back",
	"internal/sparql.Pattern.writeTo": "the SPARQL syntax ResolvedSPARQL writes, checked by parsing its text back",
	"internal/sparql.Filter.writeTo":  "the SPARQL syntax ResolvedSPARQL writes, checked by parsing its text back",
	"internal/sparql.FilterOp.String": "the SPARQL syntax ResolvedSPARQL writes, checked by parsing its text back",

	// A contract the one caller does not exercise.
	"internal/obs.Trace.ID": "Record's ID for an event that carries none; the server always sets one",
}

var reachListing = flag.String("reach", "", "make reach's listing (go tool cover -func lines of the functions no run executed) to hold the ledger to")

// TestReachLedger fails on a ledger row whose function is gone or renamed,
// and on a function with a row on both reachLedger and testOnlySurface.
// It reads syntax only, like TestNoTestOnlySurface. Handed make reach's
// listing (-args -reach FILE), it also fails on a listed function with no
// row on either list, and on a ledger row whose function a run reached.
func TestReachLedger(t *testing.T) {
	at := funcPositions(t) // "internal/store/graph.go:397" → "internal/store.Graph.Has"
	declared := map[string]bool{}
	for _, key := range at {
		declared[key] = true
	}
	for key := range reachLedger {
		if !declared[key] {
			t.Errorf("the reach ledger names %s, which is gone or renamed: drop or rename the row", key)
		}
		if testOnlySurface[key] != "" {
			t.Errorf("%s has a row on both reachLedger and testOnlySurface: keep the one on testOnlySurface", key)
		}
	}
	if *reachListing == "" {
		return
	}
	f, err := os.Open(*reachListing)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	listed := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		pos, _, _ := strings.Cut(sc.Text(), " ") // "gqa/internal/store/graph.go:397:"
		pos = strings.TrimSuffix(strings.TrimPrefix(pos, "gqa/"), ":")
		key := at[pos]
		if key == "" {
			t.Errorf("listing line %q names no function of this tree: rerun make reach", sc.Text())
			continue
		}
		listed[key] = true
		if reachLedger[key] == "" && testOnlySurface[key] == "" {
			t.Errorf("no run reaches %s and no row says why: delete it, or add a reach ledger row with the reason it stays", key)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for key := range reachLedger {
		if declared[key] && !listed[key] {
			t.Errorf("a run reaches %s now: drop its reach ledger row", key)
		}
	}
}

// funcPositions maps "file:line" of every function and method declared in
// a non-test file of the root package or a package under internal/ to its
// ledger key: "gqa.Func" or "internal/pkg.Type.Method", the shape of
// testOnlySurface's keys.
func funcPositions(t *testing.T) map[string]string {
	t.Helper()
	fset := token.NewFileSet()
	at := map[string]string{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && path != "internal" && !strings.HasPrefix(path, "internal/") ||
				strings.HasPrefix(d.Name(), ".") && path != "." || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		prefix := "gqa."
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			prefix = dir + "."
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil {
				recv := fn.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				switch r := recv.(type) {
				case *ast.IndexExpr:
					recv = r.X
				case *ast.IndexListExpr:
					recv = r.X
				}
				name = recv.(*ast.Ident).Name + "." + name
			}
			p := fset.Position(fn.Pos())
			at[filepath.ToSlash(p.Filename)+":"+strconv.Itoa(p.Line)] = prefix + name
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return at
}
