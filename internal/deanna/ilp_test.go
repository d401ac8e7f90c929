package deanna

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"gqa/internal/core"
	"gqa/internal/dict"
	"gqa/internal/rdf"
	"gqa/internal/store"
)

// randomILPSetup builds a random graph and query graph directly (bypassing
// NLP) to exercise the ILP solver in isolation.
func randomILPSetup(r *rand.Rand) (*System, *core.QueryGraph, []edgeCands) {
	g := store.New()
	nv := 5 + r.Intn(8)
	verts := make([]store.ID, nv)
	for i := range verts {
		verts[i] = g.Intern(rdf.Resource(fmt.Sprintf("v%d", i)))
	}
	np := 2 + r.Intn(3)
	preds := make([]store.ID, np)
	for i := range preds {
		preds[i] = g.Intern(rdf.Ontology(fmt.Sprintf("p%d", i)))
	}
	for i := 0; i < nv*2; i++ {
		s, o := verts[r.Intn(nv)], verts[r.Intn(nv)]
		if s != o {
			g.AddSPO(s, preds[r.Intn(np)], o)
		}
	}
	sys := NewSystem(g, dict.New(), Options{})

	qn := 2 + r.Intn(2)
	q := &core.QueryGraph{}
	d := dict.New()
	for i := 0; i < qn; i++ {
		v := core.Vertex{Arg: core.Argument{Text: fmt.Sprintf("a%d", i)}}
		if r.Intn(4) == 0 {
			v.Unconstrained = true
		} else {
			k := 1 + r.Intn(3)
			for j := 0; j < k; j++ {
				v.Candidates = append(v.Candidates, core.VertexCandidate{
					ID:    verts[r.Intn(nv)],
					Score: 0.2 + 0.8*r.Float64(),
				})
			}
			sort.SliceStable(v.Candidates, func(a, b int) bool {
				return v.Candidates[a].Score > v.Candidates[b].Score
			})
		}
		q.Vertices = append(q.Vertices, v)
	}
	var edges []edgeCands
	for i := 1; i < qn; i++ {
		phrase := d.Add(fmt.Sprintf("rel%d", i), nil)
		q.Edges = append(q.Edges, core.Edge{From: i - 1, To: i, Phrase: phrase})
		ec := edgeCands{}
		k := 1 + r.Intn(3)
		for j := 0; j < k; j++ {
			ec.preds = append(ec.preds, preds[r.Intn(np)])
			ec.scores = append(ec.scores, 0.2+0.8*r.Float64())
		}
		edges = append(edges, ec)
	}
	return sys, q, edges
}

// bruteILP enumerates every joint assignment and returns the maximal
// objective value under the same precomputed disambiguation graph.
func bruteILP(q *core.QueryGraph, edges []edgeCands, dg *disambGraph) float64 {
	nV, nE := len(q.Vertices), len(q.Edges)
	best := math.Inf(-1)
	cur := ilpChoice{vertex: make([]int, nV), edge: make([]int, nE)}
	var rec func(pos int)
	rec = func(pos int) {
		if pos == nV+nE {
			score := 0.0
			for vi := range q.Vertices {
				ci := cur.vertex[vi]
				if ci < 0 {
					continue
				}
				score += math.Log(q.Vertices[vi].Candidates[ci].Score)
				score += coherenceWeight * vertexCoherence(dg, cur, vi, ci)
			}
			for ei := range q.Edges {
				ci := cur.edge[ei]
				score += math.Log(edges[ei].scores[ci])
				score += coherenceWeight * edgeCoherence(dg, q, cur, ei, ci)
			}
			if score > best {
				best = score
			}
			return
		}
		if pos < nV {
			if q.Vertices[pos].Unconstrained {
				cur.vertex[pos] = -1
				rec(pos + 1)
				return
			}
			for ci := range q.Vertices[pos].Candidates {
				cur.vertex[pos] = ci
				rec(pos + 1)
			}
			return
		}
		ei := pos - nV
		for ci := range edges[ei].preds {
			cur.edge[ei] = ci
			rec(pos + 1)
		}
	}
	rec(0)
	return best
}

// scoreChoice evaluates a specific choice under the objective.
func scoreChoice(q *core.QueryGraph, edges []edgeCands, dg *disambGraph, c ilpChoice) float64 {
	score := 0.0
	for vi := range q.Vertices {
		ci := c.vertex[vi]
		if ci < 0 {
			continue
		}
		score += math.Log(q.Vertices[vi].Candidates[ci].Score)
		score += coherenceWeight * vertexCoherence(dg, c, vi, ci)
	}
	for ei := range q.Edges {
		ci := c.edge[ei]
		score += math.Log(edges[ei].scores[ci])
		score += coherenceWeight * edgeCoherence(dg, q, c, ei, ci)
	}
	return score
}

// TestQuickILPBranchAndBoundIsOptimal: the pruned solver must return an
// assignment achieving exactly the brute-force optimum.
func TestQuickILPBranchAndBoundIsOptimal(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		sys, q, edges := randomILPSetup(r)
		res := &Result{}
		dg := sys.buildDisambiguationGraph(q, edges, res)
		choice := sys.solveILP(q, edges, &Result{})
		// solveILP rebuilds its own dg; rebuild here for scoring only.
		got := scoreChoice(q, edges, dg, choice)
		want := bruteILP(q, edges, dg)
		if math.Abs(got-want) > 1e-9 {
			t.Logf("seed %d: B&B %f, brute force %f", seed, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDisambiguationGraphSize(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	sys, q, edges := randomILPSetup(r)
	res := &Result{}
	sys.buildDisambiguationGraph(q, edges, res)
	// Every vertex-candidate pair across distinct vertices is evaluated,
	// plus vertex×incident-edge candidates — the quadratic cost the paper
	// attributes to DEANNA.
	wantVV := 0
	for i := range q.Vertices {
		for j := i + 1; j < len(q.Vertices); j++ {
			wantVV += len(q.Vertices[i].Candidates) * len(q.Vertices[j].Candidates)
		}
	}
	wantVE := 0
	for ei, e := range q.Edges {
		wantVE += len(edges[ei].preds) * (len(q.Vertices[e.From].Candidates) + len(q.Vertices[e.To].Candidates))
	}
	if res.CoherenceEvals != wantVV+wantVE {
		t.Fatalf("coherence evals = %d, want %d", res.CoherenceEvals, wantVV+wantVE)
	}
}
