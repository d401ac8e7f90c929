package eval

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"gqa/internal/bench"
	"gqa/internal/core"
	"gqa/internal/dict"
	"gqa/internal/obs"
	"gqa/internal/store"
)

// workloadKB is one benchmark repository: how to build it (a fresh graph
// and dictionary per call, always with the same term-ID assignment) and
// the questions asked of it.
type workloadKB struct {
	name      string
	build     func() (*store.Graph, *dict.Dictionary, error)
	questions func() []bench.Question
	// wideRound, when set, is how many seeds some question's search must
	// run: the shape that workload is in the table for.
	wideRound int64
	// rendered pins what a K = 1 run renders — labels, Explain lines and
	// the resolved SPARQL of every match of every question — as of d5212e7,
	// where each edge's orientation was still re-derived by walking its
	// path again after the search.
	rendered string
	// boundCut, when set, says the workload is in the table for the score
	// bound inside a seed: some question must have more than k matches in
	// two score classes or more, and the search that returns its top k must
	// take at most a tenth of the steps it takes to enumerate them all.
	boundCut bool
	// aggregate turns on the counting/superlative extension with the
	// mini-DBpedia's superlatives in every shape, so a superlative's ranking
	// reads the shape's view.
	aggregate bool
}

// extend applies the row's extension setting to a freshly built system.
func (kb workloadKB) extend(sys *core.System) *core.System {
	if kb.aggregate {
		sys.Opts.EnableAggregation = true
		bench.RegisterSuperlatives(sys, sys.Graph)
	}
	return sys
}

func buildQALD() (*store.Graph, *dict.Dictionary, error) {
	g, err := bench.BuildKB()
	if err != nil {
		return nil, nil, err
	}
	d, _, err := bench.BuildDictionary(g)
	return g, d, err
}

var (
	qaldKB = workloadKB{name: "qald", rendered: "bf62f78672703e03644b2278442555012805652768b0d3a2c5b4a2021cffb5fd", build: buildQALD, questions: bench.Workload}
	// qaldAggKB is the same workload with the aggregation extension on: its
	// eight counting and superlative questions reduce to a count or a
	// ranking over their base question's answers (four answered, four
	// aggregation failures). Pinned at 00fe0fb, where a second trip through
	// the pipeline answered them.
	qaldAggKB = workloadKB{name: "qald-agg", aggregate: true, rendered: "cfec586ae5e765f15811ce613ef14a0607d6e6c3e674b3f409b2c33a286badcc", build: buildQALD, questions: bench.Workload}
	yagoKB    = workloadKB{name: "yago", rendered: "47c53e1024f0ea896604ae977e74d9bc6c9ba4f00e056a0f20155801486fad95", build: func() (*store.Graph, *dict.Dictionary, error) {
		g, err := bench.BuildYagoKB()
		if err != nil {
			return nil, nil, err
		}
		d, err := bench.BuildYagoDictionary(g)
		return g, d, err
	}, questions: bench.YagoWorkload}
	// nlscaleKB is the generated people KB, small: "Which people live in
	// C?" anchors at a class that unrolls to every person, the shape where
	// one round's seeds number a hundred (and over remote shards are
	// costed from one batch per shard). 100 people is as large as it goes:
	// past 64 x (the city anchor's one candidate + 1) seeds the matcher
	// stops anchoring at the class at all.
	nlscaleKB = workloadKB{name: "nlscale", wideRound: 100, rendered: "f7bf130f65102f2ad60c0e549df357f9e0ebba663d3fc9ec6413b332384c99f6", build: func() (*store.Graph, *dict.Dictionary, error) {
		kb, err := newNLScale()
		if err != nil {
			return nil, nil, err
		}
		return kb.Graph, kb.Dict, nil
	}, questions: func() []bench.Question {
		kb, err := newNLScale()
		if err != nil {
			panic(err)
		}
		return kb.Questions
	}}
)

func newNLScale() (*bench.NLScaleKB, error) { return bench.NewNLScaleKB(100, 9, 3) }

// cinemaKB is the generated films × cast × directors KB, the shape of
// benchmark/'s match-local workload: under the answers of "Which actors
// played in a film directed by D?" lie some twenty times as many co-star
// readings, which the search must leave unread in every shape alike. Its
// second question names two directors at once, equally well: the second
// ties the first at the round bound.
var cinemaKB = workloadKB{name: "cinema", boundCut: true, rendered: "57b3d2c1eecc50756bc8cd69e112c7c9929ed9b3cc6215b6f9bdb739f73e4520", build: func() (*store.Graph, *dict.Dictionary, error) {
	kb := bench.NewCinemaKB()
	return kb.Graph, kb.Dict, nil
}, questions: func() []bench.Question { return bench.NewCinemaKB().Questions }}

func (kb workloadKB) mustBuild(t *testing.T) (*store.Graph, *dict.Dictionary) {
	t.Helper()
	g, d, err := kb.build()
	if err != nil {
		t.Fatalf("building %s: %v", kb.name, err)
	}
	return g, d
}

// inProcess is the K-shard in-process shape: the KB frozen into k
// vertex-hash parts (k = 1 is the monolithic snapshot).
func inProcess(k int) func(*testing.T, workloadKB) *core.System {
	return func(t *testing.T, kb workloadKB) *core.System {
		g, d := kb.mustBuild(t)
		if k > 1 {
			g.SetShards(k)
		}
		if sn := g.Freeze(); sn.NumShards() != k || g.FrozenView() != store.View(sn) {
			t.Fatalf("frozen view is %T with %d shards, want the %d-shard *store.Snapshot",
				g.FrozenView(), sn.NumShards(), k)
		}
		return core.NewSystem(g, d, core.Options{TopK: 10})
	}
}

// fromDisk is the instant-cold-start shape, the graph gqa-serve -snapshot
// boots from: the KB saved as a GQAFRZ1 file and loaded back. The loaded
// graph must arrive frozen, at the exact mutation generation it was saved
// at, so generation-keyed cache entries stay coherent across restarts. The
// dictionary is the in-memory one (the file keeps the term-ID assignment,
// so it applies unchanged), so a divergence here is the graph file's.
func fromDisk(t *testing.T, kb workloadKB) *core.System {
	g, d := kb.mustBuild(t)
	return core.NewSystem(loadFrozenCopy(t, g), d, core.Options{TopK: 10})
}

// fromFiles is the system `gqa-serve -snapshot … -dict` boots: the graph
// from its GQAFRZ1 file and the dictionary decoded from Encode's text,
// resolved against the loaded graph. Mine keeps its scores on the grid
// the text holds, so the booted dictionary is the mined one; where this
// row diverges and disk-k1 does not, the dictionary's round trip is at
// fault.
func fromFiles(t *testing.T, kb workloadKB) *core.System {
	g, d := kb.mustBuild(t)
	loaded := loadFrozenCopy(t, g)
	var text bytes.Buffer
	if err := d.Encode(&text, g); err != nil {
		t.Fatal(err)
	}
	booted, err := dict.Decode(&text, loaded)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return core.NewSystem(loaded, booted, core.Options{TopK: 10})
}

// loadFrozenCopy saves g as a GQAFRZ1 file and loads it back, holding the
// load to g's generation and to an installed snapshot.
func loadFrozenCopy(t *testing.T, g *store.Graph) *store.Graph {
	t.Helper()
	var frz bytes.Buffer
	if err := store.SaveFrozen(&frz, g); err != nil {
		t.Fatal(err)
	}
	loaded, err := store.LoadFrozen(&frz)
	if err != nil {
		t.Fatalf("LoadFrozen: %v", err)
	}
	if got, want := loaded.Generation(), g.Generation(); got != want {
		t.Fatalf("frozen boot generation = %d, want the saved graph's %d", got, want)
	}
	if loaded.Frozen() == nil {
		t.Fatal("frozen boot did not install the snapshot (first Frozen() must be free)")
	}
	return loaded
}

// remoteK4 is the multi-process shape minus the process boundary: 4 shard
// parts exported through the file format, each served by a loopback
// ShardServer, and a coordinator whose every frozen read crosses the wire.
func remoteK4(t *testing.T, kb workloadKB) *core.System {
	addrs, _ := startRemoteShards(t, kb, 4)
	sys := buildRemoteSystem(t, kb, addrs, store.RemoteOptions{})
	if sn, ok := sys.Graph.FrozenView().(*store.Snapshot); !ok || sn == sys.Graph.Frozen() {
		t.Fatalf("remote system's view is %T, want the dialed *store.Snapshot, not the local freeze",
			sys.Graph.FrozenView())
	}
	return sys
}

// observed is everything one answered question shows a caller.
type observed struct {
	// fingerprint is the result in term IDs: failure kind, degradation,
	// boolean, answers, and every match's assignment, justification, edge
	// paths and score.
	fingerprint string
	// rendered is the result through the shape's own term table: the
	// answer labels, and the Explain line and resolved SPARQL of every match.
	rendered string
	// stats is the search's work counters.
	stats core.MatchStats
}

func observe(t *testing.T, sys *core.System, question string) observed {
	t.Helper()
	res, err := sys.Answer(question)
	if err != nil {
		t.Fatalf("%q: %v", question, err)
	}
	var fp, rd strings.Builder
	fmt.Fprintf(&fp, "failure=%v degraded=%q", res.Failure, res.Degraded)
	if res.Boolean != nil {
		fmt.Fprintf(&fp, " bool=%v", *res.Boolean)
	}
	fmt.Fprintf(&fp, " answers=%v\n", res.Answers)
	fmt.Fprintf(&rd, "labels=%q\n", labelsOf(sys.Graph, res.Answers))
	if res.Count != nil {
		fmt.Fprintf(&rd, "count=%d\n", *res.Count)
	}
	// The search is over: what renders its matches reads the term table,
	// and must not send a frame the request's read set, budget and trace
	// never see.
	frames := obs.DefaultCounter("gqa_rpc_calls_total", "")
	sent := frames.Value()
	for i := range res.Matches.Len() {
		m := res.Matches.At(i)
		fmt.Fprintf(&fp, "  assign=%v via=%v score=%.15f paths=[", m.Assignment, m.Via, m.Score)
		for _, p := range m.EdgePaths {
			fmt.Fprintf(&fp, "%s|", p.Key())
		}
		fp.WriteString("]\n")
		rd.WriteString(core.RenderMatch(sys.Graph, res.Query, &m))
		rd.WriteByte('\n')
		sq, err := core.ResolvedSPARQL(sys.Graph, res.Matches, i)
		if err != nil {
			t.Fatalf("%q: match %d has no SPARQL: %v", question, i, err)
		}
		rd.WriteString(sq)
		rd.WriteByte('\n')
	}
	if n := frames.Value() - sent; n != 0 {
		t.Errorf("%q: rendering its matches sent %d shard frames after the search had ended", question, n)
	}
	return observed{fp.String(), rd.String(), res.Stats}
}

// boundCuts is the witness of a boundCut row: with k out of the way and the
// threshold off, some question shows more than the default k = 10 matches
// in at least two score classes, at ten times the steps of its top-k search
// (whose stats are in want).
func boundCuts(t *testing.T, kb workloadKB, qs []bench.Question, want []observed) bool {
	all := inProcess(1)(t, kb)
	all.Opts = core.Options{TopK: 1 << 20, Exhaustive: true}
	for i, q := range qs {
		res, err := all.Answer(q.Text)
		if err != nil {
			t.Fatalf("%q: %v", q.Text, err)
		}
		classes := make(map[float64]bool)
		for i := range res.Matches.Len() {
			classes[res.Matches.Score(i)] = true
		}
		if res.Matches.Len() > 10 && len(classes) >= 2 && res.Stats.Steps >= 10*want[i].stats.Steps {
			return true
		}
	}
	return false
}

// TestWorkloadIdentity is the one identity gate over deployment shapes:
// however the frozen graph is laid out (one part, 4 or 8 in-process parts,
// a file loaded from disk, with or without the dictionary read back from
// its text, 4 shard servers over loopback), every question
// of the four workloads must produce byte-identical answers, byte-identical
// labels and Explain lines, and the whole MatchStats of the one-part run:
// the search tree is one in every shape. The wire may add latency, retries
// and telemetry — the rounds, the steps, the thresholds and the harvested
// matches must coincide exactly, and no search is ever cut short: a healthy
// remote topology never degrades and no question meets the match cap (the
// fingerprint carries Degraded). No budget is set. Run under -race in
// tier 1.
//
// A new layout is one more row here, not a new test family.
func TestWorkloadIdentity(t *testing.T) {
	shapes := []struct {
		name  string
		build func(*testing.T, workloadKB) *core.System
	}{
		{"k1", inProcess(1)},
		{"k4", inProcess(4)},
		{"k8", inProcess(8)},
		{"disk-k1", fromDisk},
		{"files", fromFiles},
		{"remote-k4", remoteK4},
	}
	for _, kb := range []workloadKB{qaldKB, qaldAggKB, yagoKB, nlscaleKB, cinemaKB} {
		qs := kb.questions()
		base := kb.extend(inProcess(1)(t, kb))
		want := make([]observed, len(qs))
		var seeds int64
		rendered := sha256.New()
		for i, q := range qs {
			want[i] = observe(t, base, q.Text)
			rendered.Write([]byte(want[i].rendered))
			seeds = max(seeds, want[i].stats.Seeds)
			if want[i].stats.Truncated != "" {
				t.Errorf("%s: %q was cut short (%s): nothing here may be", kb.name, q.Text, want[i].stats.Truncated)
			}
		}
		if got := hex.EncodeToString(rendered.Sum(nil)); got != kb.rendered {
			t.Errorf("%s: what a K=1 run renders hashes to %s, pinned %s", kb.name, got, kb.rendered)
		}
		if seeds < kb.wideRound {
			t.Errorf("%s: no question ran %d seeds (most: %d), the shape the row is here for", kb.name, kb.wideRound, seeds)
		}
		if kb.boundCut && !boundCuts(t, kb, qs, want) {
			t.Errorf("%s: no question has more than k matches in two score classes and a top-k search ten times cheaper than their enumeration, the shape the row is here for", kb.name)
		}
		for _, shape := range shapes {
			t.Run(kb.name+"/"+shape.name, func(t *testing.T) {
				sys := kb.extend(shape.build(t, kb))
				for i, q := range qs {
					got := observe(t, sys, q.Text)
					if got.fingerprint != want[i].fingerprint {
						t.Errorf("%q diverged from K=1:\n got: %s\nwant: %s",
							q.Text, got.fingerprint, want[i].fingerprint)
					}
					if got.rendered != want[i].rendered {
						t.Errorf("%q labels or explain lines diverged:\n got: %s\nwant: %s",
							q.Text, got.rendered, want[i].rendered)
					}
					if got.stats != want[i].stats {
						t.Errorf("%q search stats diverged:\n got: %+v\nwant: %+v",
							q.Text, got.stats, want[i].stats)
					}
				}
			})
		}
	}
}

// labelsOf renders answer IDs with the graph's labels, in order.
func labelsOf(g *store.Graph, ids []store.ID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = g.LabelOf(id)
	}
	return out
}
