package store

// Frozen parts. A frozen graph is K ≥ 1 immutable parts: part s of K owns
// the vertices v with v mod K == s, at dense local index v div K, and
// holds their full out- and in-adjacency as CSR arrays with every span
// sorted by (Pred, To). A monolithic snapshot is simply K = 1. Because a
// vertex lives wholly in one part, every per-vertex read is one-part and
// returns the same sorted span at every K. A predicate-major scan is not
// an index of its own: the snapshot walks every subject in ascending ID
// order and reads its out p-run, which is (S, O) order whichever part owns
// each subject. That order identity is what keeps answers byte-identical
// across shard counts and across the process boundary.
//
// Each edge (s, p, o) is stored twice, once per direction: in s's part's
// out-CSR and o's part's in-CSR; a membership probe reads s's out span
// wherever o lives.

import (
	"cmp"
	"slices"

	"gqa/internal/rdf"
)

// Vertex role bits precomputed at freeze, so the entity list and the
// stats are array reads instead of per-vertex map probes.
const (
	roleIRI     = 1 << iota // term is an IRI
	roleLiteral             // term is a literal
	roleClass               // vertex classified as a class (Definition 3)
	rolePred                // term is used as a predicate
	roleEntity              // IRI, not a class, not a predicate, degree > 0
)

// shardPart is one part's frozen arrays. All fields are immutable after
// build.
type shardPart struct {
	shard  int
	k      int
	nTerms int // global term count at build

	// Full adjacency of owned vertices in local-indexed CSR form, spans
	// sorted (Pred, To); the in side stores the subject in Edge.To.
	outOff   []uint32
	outEdges []Edge
	inOff    []uint32
	inEdges  []Edge

	// The predicates of the owned subjects' out edges, ascending.
	predIDs []ID

	roles    []uint8 // role bitmap, local-indexed
	entities []ID    // owned entity vertices, ascending global IDs
	literals int     // owned literal terms
	bytes    int64
}

// localCount is how many of n densely numbered vertices shard of k owns.
func localCount(n, shard, k int) int {
	if n <= shard {
		return 0
	}
	return (n-shard-1)/k + 1
}

// buildShardPart recompacts one part from the graph's rows (graph.go: the
// insertion-order lists before the first freeze; thawed rows and base spans
// after): the local CSRs, the out edges' predicate list and roles.
func buildShardPart(g *Graph, shard, k int) *shardPart {
	n := g.terms.len()
	nLocal := localCount(n, shard, k)
	p := &shardPart{shard: shard, k: k, nTerms: n}
	p.outOff, p.outEdges = buildLocalCSR(g.outRow, shard, k, nLocal)
	p.inOff, p.inEdges = buildLocalCSR(g.inRow, shard, k, nLocal)

	used := make([]bool, n)
	for _, e := range p.outEdges {
		used[e.Pred] = true
	}
	p.predIDs = []ID{}
	for id, u := range used {
		if u {
			p.predIDs = append(p.predIDs, ID(id))
		}
	}

	// Role bitmap and owned entity list (locals ascend in global ID order,
	// so entities come out ascending).
	p.roles = make([]uint8, nLocal)
	for l := 0; l < nLocal; l++ {
		id := ID(shard + l*k)
		var r uint8
		switch g.terms.kind(id) {
		case rdf.KindIRI:
			r |= roleIRI
		case rdf.KindLiteral:
			r |= roleLiteral
			p.literals++
		}
		if _, ok := g.classes[id]; ok {
			r |= roleClass
		}
		if _, ok := g.preds[id]; ok {
			r |= rolePred
		}
		deg := p.outOff[l+1] - p.outOff[l] + p.inOff[l+1] - p.inOff[l]
		if r&roleIRI != 0 && r&(roleClass|rolePred) == 0 && deg > 0 {
			r |= roleEntity
			p.entities = append(p.entities, id)
		}
		p.roles[l] = r
	}
	p.bytes = p.arrayBytes()
	return p
}

// arrayBytes is the approximate heap size of the part's arrays.
func (p *shardPart) arrayBytes() int64 {
	return int64(len(p.outEdges)+len(p.inEdges))*8 +
		int64(len(p.outOff)+len(p.inOff))*4 +
		int64(len(p.roles)) +
		int64(len(p.entities)+len(p.predIDs))*4
}

// buildLocalCSR flattens the owned vertices' rows into local-indexed
// offset+edge arrays, spans sorted (Pred, To).
func buildLocalCSR(row func(ID) []Edge, shard, k, nLocal int) ([]uint32, []Edge) {
	off := make([]uint32, nLocal+1)
	total := 0
	for l := 0; l < nLocal; l++ {
		total += len(row(ID(shard + l*k)))
	}
	edges := make([]Edge, 0, total)
	for l := 0; l < nLocal; l++ {
		start := len(edges)
		edges = append(edges, row(ID(shard+l*k))...)
		slices.SortFunc(edges[start:], func(a, b Edge) int {
			return cmp.Or(cmp.Compare(a.Pred, b.Pred), cmp.Compare(a.To, b.To))
		})
		off[l+1] = uint32(len(edges))
	}
	return off, edges
}

// ------------------------------------------------------ sorted-span search

// lowerBoundPred returns the first index in a (Pred, To)-sorted span with
// Pred >= p. Hand-rolled hybrid search: binary steps while the window is
// wide, then a linear tail scan — most vertices have single-digit degree,
// where a handful of predictable compares beats log2(n) mispredicted
// branches. This sits under every hot lookup.
func lowerBoundPred(edges []Edge, p ID) int {
	lo, hi := 0, len(edges)
	for hi-lo > 8 {
		mid := int(uint(lo+hi) >> 1)
		if edges[mid].Pred < p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for lo < hi && edges[lo].Pred < p {
		lo++
	}
	return lo
}

// predSpan searches a (Pred, To)-sorted edge span for the contiguous run
// of predicate p, with the same hybrid strategy as lowerBoundPred for the
// run's end.
func predSpan(edges []Edge, p ID) []Edge {
	lo := lowerBoundPred(edges, p)
	j, hi := lo, len(edges)
	for hi-j > 8 {
		mid := int(uint(j+hi) >> 1)
		if edges[mid].Pred <= p {
			j = mid + 1
		} else {
			hi = mid
		}
	}
	for j < hi && edges[j].Pred == p {
		j++
	}
	return edges[lo:j]
}

// spanHasPred reports whether the sorted span contains any edge with
// predicate p (existence only — no need to locate the run's end).
func spanHasPred(edges []Edge, p ID) bool {
	i := lowerBoundPred(edges, p)
	return i < len(edges) && edges[i].Pred == p
}

// spanHas reports whether the (Pred, To)-sorted span contains (p, o).
func spanHas(span []Edge, p, o ID) bool {
	lo, hi := 0, len(span)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		e := span[mid]
		if e.Pred < p || (e.Pred == p && e.To < o) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(span) && span[lo].Pred == p && span[lo].To == o
}

// ------------------------------------------------------- the local reader

// localParts is the in-process reader: element i is part i of
// K = len(localParts). A frozen graph holds all K; a shard server holds
// only its own and leaves the rest nil, so a read for a vertex another
// server owns answers empty instead of faulting.
type localParts []*shardPart

// locate returns the part owning v and v's local index there, or a nil
// part when v is out of range (None, a term interned after the part was
// built) or owned by a part this process does not hold.
func (ps localParts) locate(v ID) (*shardPart, int) {
	k := uint32(len(ps))
	p, l := ps[uint32(v)%k], uint32(v)/k
	if p == nil || l >= uint32(len(p.roles)) {
		return nil, 0
	}
	return p, int(l)
}

func (ps localParts) outSpan(v ID) []Edge {
	p, l := ps.locate(v)
	if p == nil {
		return nil
	}
	return p.outEdges[p.outOff[l]:p.outOff[l+1]]
}

func (ps localParts) inSpan(v ID) []Edge {
	p, l := ps.locate(v)
	if p == nil {
		return nil
	}
	return p.inEdges[p.inOff[l]:p.inOff[l+1]]
}

func (ps localParts) outPred(v, p ID) []Edge { return predSpan(ps.outSpan(v), p) }
func (ps localParts) inPred(v, p ID) []Edge  { return predSpan(ps.inSpan(v), p) }
