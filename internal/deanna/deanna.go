// Package deanna implements the DEANNA baseline [29] the paper compares
// against: joint disambiguation in the question-understanding stage,
// followed by SPARQL generation and evaluation.
//
// DEANNA builds a disambiguation graph whose nodes are (phrase, candidate)
// pairs and solves an ILP choosing exactly one candidate per phrase so that
// the sum of mapping priors and pairwise semantic coherence is maximal.
// The ILP is NP-hard; this implementation solves it exactly with
// branch-and-bound over the assignment space, computing pairwise coherence
// on the fly from the graph — precisely the cost profile the paper
// attributes to the approach (§1.2, Table 12). The committed mapping is
// then rendered to SPARQL and evaluated.
//
// Two faithful limitations are preserved: DEANNA maps relation phrases to
// single predicates only (no predicate paths, §7 point 3), and once the
// ILP commits to a mapping there is no data-driven recovery — if the
// chosen SPARQL is empty, the question fails.
package deanna

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"gqa/internal/core"
	"gqa/internal/dict"
	"gqa/internal/linker"
	"gqa/internal/nlp"
	"gqa/internal/sparql"
	"gqa/internal/store"
)

// Options tunes the baseline.
type Options struct {
	// MaxEntityCandidates per phrase (default 10).
	MaxEntityCandidates int
}

// coherenceWeight is λ, the weight that blends pairwise coherence into the
// objective.
const coherenceWeight = 1.0

// System is the assembled baseline engine.
type System struct {
	Graph  *store.Graph
	Dict   *dict.Dictionary
	Linker *linker.Linker
	Opts   Options
}

// NewSystem builds the baseline over the same substrates as the main
// engine, for apples-to-apples comparison.
func NewSystem(g *store.Graph, d *dict.Dictionary, opts Options) *System {
	if opts.MaxEntityCandidates == 0 {
		opts.MaxEntityCandidates = 10
	}
	return &System{Graph: g, Dict: d, Linker: linker.New(g, linker.Options{}), Opts: opts}
}

// Result is the outcome of one baseline run.
type Result struct {
	Question string
	Queries  []*sparql.Query // the generated SPARQL queries (direction variants)
	Answers  []store.ID
	Boolean  *bool
	Failed   bool
	// Timing splits the online time as core's does: Parse, then
	// Understanding (the disambiguation ILP and SPARQL generation), then
	// Evaluation, summing to Total exactly.
	Timing core.Timing
	// CombinationsExplored counts ILP branch-and-bound nodes — the
	// exponential understanding work the paper contrasts with its own
	// polynomial stage.
	CombinationsExplored int
	CoherenceEvals       int
}

// Answer runs the full DEANNA pipeline on one question. Each stage
// boundary is read once, so the stages tile Total.
func (s *System) Answer(question string) (*Result, error) {
	if strings.TrimSpace(question) == "" {
		return nil, errors.New("deanna: empty question")
	}
	res := &Result{Question: question}
	start := time.Now()
	y, err := nlp.Parse(question)
	if err != nil {
		return nil, err
	}
	parsed := time.Now()
	res.Queries = s.understand(y, res)
	understood := time.Now()
	res.Timing.Parse, res.Timing.Understanding = parsed.Sub(start), understood.Sub(parsed)
	if len(res.Queries) == 0 {
		res.Failed = true
		res.Timing.Total = understood.Sub(start)
		return res, nil
	}

	// ---- Evaluation.
	seen := make(map[store.ID]struct{})
	anyTrue := false
	for _, query := range res.Queries {
		r, err := sparql.Eval(s.Graph, query)
		if err != nil {
			return nil, err
		}
		if r.Kind == sparql.KindAsk {
			anyTrue = anyTrue || r.Boolean
			continue
		}
		for _, row := range r.Rows {
			for _, v := range r.Vars {
				if v != answerVar {
					continue
				}
				if id, ok := s.Graph.Lookup(row[v]); ok {
					if _, dup := seen[id]; !dup {
						seen[id] = struct{}{}
						res.Answers = append(res.Answers, id)
					}
				}
			}
		}
	}
	end := time.Now()
	res.Timing.Evaluation, res.Timing.Total = end.Sub(understood), end.Sub(start)

	if res.Queries[0].Kind == sparql.KindAsk {
		res.Boolean = &anyTrue
		return res, nil
	}
	if len(res.Answers) == 0 {
		res.Failed = true
	}
	return res, nil
}

// understand is the baseline's understanding stage over the parse y:
// relations and Q^S, the single-predicate restriction, the joint
// disambiguation ILP (counted into res) and SPARQL generation from the
// committed mapping. It returns no query when some phrase has no
// candidate.
func (s *System) understand(y *nlp.DepTree, res *Result) []*sparql.Query {
	rels := core.ExtractRelations(y, s.Dict, core.ExtractOptions{})
	if len(rels) == 0 {
		return nil
	}
	q := core.BuildQueryGraph(y, rels, s.Linker, core.BuildOptions{
		MaxVertexCandidates: s.Opts.MaxEntityCandidates,
	})

	// Single-predicate restriction: drop path candidates.
	edges := make([]edgeCands, len(q.Edges))
	for i, e := range q.Edges {
		for _, c := range e.Candidates {
			if len(c.Path) != 1 {
				continue
			}
			edges[i].preds = append(edges[i].preds, c.Path[0].Pred)
			edges[i].scores = append(edges[i].scores, c.Score)
		}
		if len(edges[i].preds) == 0 {
			return nil
		}
	}
	for _, v := range q.Vertices {
		if !v.Unconstrained && len(v.Candidates) == 0 {
			return nil
		}
	}

	// ---- Joint disambiguation (the ILP).
	assignment := s.solveILP(q, edges, res)

	// ---- SPARQL generation from the committed mapping.
	return s.generate(q, edges, assignment)
}

const answerVar = "answer"

// edgeCands is one edge's single-predicate candidate list after the
// baseline's no-paths restriction.
type edgeCands struct {
	preds  []store.ID
	scores []float64
}

// ilpChoice is the per-phrase selection: vertex candidate indices and edge
// candidate indices (-1 for unconstrained vertices).
type ilpChoice struct {
	vertex []int
	edge   []int
}

// buildDisambiguationGraph precomputes the pairwise coherence between
// every two candidate nodes, exactly as DEANNA constructs its
// disambiguation graph before solving the ILP (§1.2: "DEANNA needs to
// compute the pairwise similarity and semantic coherence between every two
// candidates on the fly. It is very costly."). The result maps
// (node, node) → coherence, where a node is a vertex candidate (vi, ci) or
// an edge candidate (ei, ci).
type disambGraph struct {
	vv map[[4]int]float64 // (vi, ci, vj, cj), vi < vj
	ve map[[4]int]float64 // (vi, ci, ei, ci)
}

func (s *System) buildDisambiguationGraph(q *core.QueryGraph, edges []edgeCands, res *Result) *disambGraph {
	dg := &disambGraph{vv: make(map[[4]int]float64), ve: make(map[[4]int]float64)}
	// Vertex-candidate × vertex-candidate coherence, every pair.
	for vi := range q.Vertices {
		for vj := vi + 1; vj < len(q.Vertices); vj++ {
			for ci, c1 := range q.Vertices[vi].Candidates {
				for cj, c2 := range q.Vertices[vj].Candidates {
					res.CoherenceEvals++
					dg.vv[[4]int{vi, ci, vj, cj}] = neighborJaccard(s.Graph, c1.ID, c2.ID)
				}
			}
		}
	}
	// Vertex-candidate × incident-edge-candidate coherence.
	view := s.Graph.FrozenView()
	for ei, e := range q.Edges {
		for ci, pred := range edges[ei].preds {
			for _, vi := range []int{e.From, e.To} {
				for cj, c := range q.Vertices[vi].Candidates {
					res.CoherenceEvals++
					co := 0.0
					if c.IsClass {
						for _, inst := range view.InPred(c.ID, view.TypeID()) {
							if view.HasAdjacentPred(inst.To, pred) {
								co = 1
								break
							}
						}
					} else if view.HasAdjacentPred(c.ID, pred) {
						co = 1
					}
					dg.ve[[4]int{vi, cj, ei, ci}] = co
				}
			}
		}
	}
	return dg
}

// solveILP maximizes Σ log prior + λ Σ coherence by exact branch-and-bound
// over the joint candidate space, consulting the precomputed
// disambiguation graph.
func (s *System) solveILP(q *core.QueryGraph, edges []edgeCands, res *Result) ilpChoice {
	dg := s.buildDisambiguationGraph(q, edges, res)
	nV, nE := len(q.Vertices), len(q.Edges)
	best := ilpChoice{vertex: make([]int, nV), edge: make([]int, nE)}
	cur := ilpChoice{vertex: make([]int, nV), edge: make([]int, nE)}
	for i := range best.vertex {
		best.vertex[i], cur.vertex[i] = -1, -1
	}
	bestScore := math.Inf(-1)

	// Upper bound per decision for pruning: the best prior plus maximal
	// coherence contribution (λ per incident pair).
	var rec func(pos int, score float64)
	order := decisionOrder(nV, nE)
	ub := make([]float64, len(order)+1)
	for i := len(order) - 1; i >= 0; i-- {
		d := order[i]
		m := 0.0
		if d.isEdge {
			for _, sc := range edges[d.idx].scores {
				if v := math.Log(sc) + coherenceWeight*2; v > m {
					m = math.Max(m, v)
				}
			}
		} else if !q.Vertices[d.idx].Unconstrained {
			for _, c := range q.Vertices[d.idx].Candidates {
				m = math.Max(m, math.Log(c.Score)+coherenceWeight*2)
			}
		}
		ub[i] = ub[i+1] + m
	}

	rec = func(pos int, score float64) {
		res.CombinationsExplored++
		if score+ub[pos] <= bestScore {
			return // bound
		}
		if pos == len(order) {
			if score > bestScore {
				bestScore = score
				copy(best.vertex, cur.vertex)
				copy(best.edge, cur.edge)
			}
			return
		}
		d := order[pos]
		if d.isEdge {
			for ci := range edges[d.idx].preds {
				cur.edge[d.idx] = ci
				delta := math.Log(edges[d.idx].scores[ci]) +
					coherenceWeight*edgeCoherence(dg, q, cur, d.idx, ci)
				rec(pos+1, score+delta)
			}
			return
		}
		if q.Vertices[d.idx].Unconstrained {
			cur.vertex[d.idx] = -1
			rec(pos+1, score)
			return
		}
		for ci, c := range q.Vertices[d.idx].Candidates {
			cur.vertex[d.idx] = ci
			delta := math.Log(c.Score) +
				coherenceWeight*vertexCoherence(dg, cur, d.idx, ci)
			rec(pos+1, score+delta)
		}
		cur.vertex[d.idx] = -1
	}
	rec(0, 0)
	return best
}

// vertexCoherence sums precomputed coherence between the fresh choice
// (vi, ci) and every previously chosen vertex candidate.
func vertexCoherence(dg *disambGraph, cur ilpChoice, vi, ci int) float64 {
	total := 0.0
	for vj := 0; vj < vi; vj++ {
		cj := cur.vertex[vj]
		if cj < 0 {
			continue
		}
		total += dg.vv[[4]int{vj, cj, vi, ci}]
	}
	return total
}

// edgeCoherence sums precomputed coherence between the chosen predicate
// and its chosen endpoints.
func edgeCoherence(dg *disambGraph, q *core.QueryGraph, cur ilpChoice, ei, ci int) float64 {
	e := q.Edges[ei]
	total := 0.0
	for _, vi := range []int{e.From, e.To} {
		cj := cur.vertex[vi]
		if cj < 0 {
			continue
		}
		total += dg.ve[[4]int{vi, cj, ei, ci}]
	}
	return total
}

type decision struct {
	isEdge bool
	idx    int
}

// decisionOrder interleaves vertices then edges (vertices first so edge
// coherence can see chosen endpoints).
func decisionOrder(nV, nE int) []decision {
	out := make([]decision, 0, nV+nE)
	for i := 0; i < nV; i++ {
		out = append(out, decision{idx: i})
	}
	for i := 0; i < nE; i++ {
		out = append(out, decision{isEdge: true, idx: i})
	}
	return out
}

// neighborJaccard is the on-the-fly semantic-coherence measure between two
// vertices: Jaccard similarity of their (undirected) neighbor sets, with a
// bonus for direct adjacency.
func neighborJaccard(g *store.Graph, a, b store.ID) float64 {
	na := neighborSet(g, a)
	nb := neighborSet(g, b)
	if len(na) == 0 || len(nb) == 0 {
		return 0
	}
	inter := 0
	for v := range na {
		if _, ok := nb[v]; ok {
			inter++
		}
	}
	j := float64(inter) / float64(len(na)+len(nb)-inter)
	if _, direct := na[b]; direct {
		j += 0.5
	}
	return j
}

func neighborSet(g *store.Graph, v store.ID) map[store.ID]struct{} {
	out := make(map[store.ID]struct{}, g.Degree(v))
	g.UndirectedNeighbors(v, func(n store.Neighbor) bool {
		out[n.To] = struct{}{}
		return true
	})
	return out
}

// generate renders the committed mapping to SPARQL. Because the mapping
// fixes predicates but questions underdetermine edge direction, one query
// per direction combination is produced (the "top-k SPARQLs" the systems
// of §1.1 hand to the evaluation stage).
func (s *System) generate(q *core.QueryGraph, edges []edgeCands, choice ilpChoice) []*sparql.Query {
	sel := q.SelectVertex()
	varName := func(vi int) string {
		if vi == sel {
			return answerVar
		}
		return fmt.Sprintf("v%d", vi)
	}
	term := func(vi int) (sparql.Term, *sparql.Pattern) {
		v := q.Vertices[vi]
		ci := choice.vertex[vi]
		if v.Unconstrained || ci < 0 {
			return sparql.Term{Var: varName(vi)}, nil
		}
		c := v.Candidates[ci]
		if c.IsClass {
			t := sparql.Term{Var: varName(vi)}
			pat := &sparql.Pattern{
				S: t,
				P: sparql.Term{Const: s.Graph.Term(s.Graph.TypeID())},
				O: sparql.Term{Const: s.Graph.Term(c.ID)},
			}
			return t, pat
		}
		return sparql.Term{Const: s.Graph.Term(c.ID)}, nil
	}

	kind := sparql.KindSelect
	var vars []string
	if sel < 0 {
		kind = sparql.KindAsk
	} else {
		vars = []string{answerVar}
	}

	nE := len(q.Edges)
	var out []*sparql.Query
	for mask := 0; mask < 1<<nE; mask++ {
		query := &sparql.Query{Kind: kind, Vars: vars, Distinct: true}
		typed := make(map[int]bool)
		for ei, e := range q.Edges {
			from, fp := term(e.From)
			to, tp := term(e.To)
			for _, p := range []*sparql.Pattern{fp, tp} {
				if p != nil {
					vi := e.From
					if p == tp {
						vi = e.To
					}
					if !typed[vi] {
						typed[vi] = true
						query.Patterns = append(query.Patterns, *p)
					}
				}
			}
			pred := sparql.Term{Const: s.Graph.Term(edges[ei].preds[choice.edge[ei]])}
			if mask&(1<<ei) == 0 {
				query.Patterns = append(query.Patterns, sparql.Pattern{S: from, P: pred, O: to})
			} else {
				query.Patterns = append(query.Patterns, sparql.Pattern{S: to, P: pred, O: from})
			}
		}
		out = append(out, query)
	}
	return out
}
