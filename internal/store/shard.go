package store

// Frozen parts. A frozen graph is K ≥ 1 immutable parts: part s of K owns
// the vertices v with v mod K == s, at dense local index v div K, and
// holds their full out- and in-adjacency as CSR arrays with every span
// sorted by (Pred, To). A monolithic snapshot is simply K = 1. Because a
// vertex lives wholly in one part, every per-vertex read is one-part and
// returns the same sorted span at every K; the predicate-major index is
// restricted to owned subjects, and since subjects partition by residue a
// k-way merge of the per-part (S, O)-sorted groups reproduces the global
// order exactly. That order identity is what keeps answers byte-identical
// across shard counts and across the process boundary.
//
// A cross-part edge (s, p, o) appears twice — in s's part's out-CSR and
// o's part's in-CSR; a membership probe reads s's out span wherever o lives.

import "sort"

// Vertex role bits precomputed at freeze so Entities/Stats/IsEntity are
// array reads instead of per-vertex map probes.
const (
	roleIRI     = 1 << iota // term is an IRI
	roleLiteral             // term is a literal
	roleClass               // vertex classified as a class (Definition 3)
	rolePred                // term is used as a predicate
	roleEntity              // IRI, not a class, not a predicate, degree > 0
)

// shardPart is one part's frozen arrays. All fields are immutable after
// build; a part built at generation gen is reused verbatim by later
// freezes while its shard stays clean.
type shardPart struct {
	gen    uint64 // shard mutation generation at build (the graph's, when K = 1)
	shard  int
	k      int
	nTerms int // global term count at build

	// Full adjacency of owned vertices in local-indexed CSR form, spans
	// sorted (Pred, To); the in side stores the subject in Edge.To.
	outOff   []uint32
	outEdges []Edge
	inOff    []uint32
	inEdges  []Edge

	// Predicate-major CSR restricted to owned subjects: predIDs
	// ascending, groups sorted (S, O).
	predIDs     []ID
	predOff     []uint32
	predTriples []Spo

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

// buildShardPart recompacts one part from the mutable graph: the local
// CSRs, owned-subject predicate CSR and roles.
func buildShardPart(g *Graph, shard, k int, gen uint64) *shardPart {
	n := len(g.terms)
	nLocal := localCount(n, shard, k)
	p := &shardPart{gen: gen, shard: shard, k: k, nTerms: n}
	p.outOff, p.outEdges = buildLocalCSR(g.out, shard, k, nLocal)
	p.inOff, p.inEdges = buildLocalCSR(g.in, shard, k, nLocal)

	// Predicate-major CSR by counting sort: count the owned triples per
	// predicate, turn the counts into group offsets, then scatter. The
	// scatter walks subjects ascending and each span in (Pred, To) order, so
	// every group fills in (S, O) order with no comparison sort.
	cursor := make([]uint32, n) // per predicate: triple count, then next free slot
	for _, e := range p.outEdges {
		cursor[e.Pred]++
	}
	p.predIDs, p.predOff = []ID{}, []uint32{0}
	for id, c := range cursor {
		if c > 0 {
			start := p.predOff[len(p.predOff)-1]
			p.predIDs = append(p.predIDs, ID(id))
			p.predOff = append(p.predOff, start+c)
			cursor[id] = start
		}
	}
	p.predTriples = make([]Spo, len(p.outEdges))
	for l := 0; l < nLocal; l++ {
		s := ID(shard + l*k)
		for _, e := range p.outEdges[p.outOff[l]:p.outOff[l+1]] {
			p.predTriples[cursor[e.Pred]] = Spo{S: s, P: e.Pred, O: e.To}
			cursor[e.Pred]++
		}
	}

	// Role bitmap and owned entity list (locals ascend in global ID order,
	// so entities come out ascending).
	p.roles = make([]uint8, nLocal)
	for l := 0; l < nLocal; l++ {
		id := ID(shard + l*k)
		var r uint8
		switch t := g.terms[id]; {
		case t.IsIRI():
			r |= roleIRI
		case t.IsLiteral():
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
		int64(len(p.outOff)+len(p.inOff)+len(p.predOff))*4 +
		int64(len(p.predTriples))*12 +
		int64(len(p.roles)) +
		int64(len(p.entities)+len(p.predIDs))*4
}

// buildLocalCSR flattens the owned rows of a global adjacency table into
// local-indexed offset+edge arrays, spans sorted (Pred, To).
func buildLocalCSR(adj [][]Edge, shard, k, nLocal int) ([]uint32, []Edge) {
	off := make([]uint32, nLocal+1)
	total := 0
	for l := 0; l < nLocal; l++ {
		total += len(adj[shard+l*k])
	}
	edges := make([]Edge, 0, total)
	for l := 0; l < nLocal; l++ {
		start := len(edges)
		edges = append(edges, adj[shard+l*k]...)
		span := edges[start:]
		sort.Slice(span, func(i, j int) bool {
			if span[i].Pred != span[j].Pred {
				return span[i].Pred < span[j].Pred
			}
			return span[i].To < span[j].To
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

// lowerBoundID returns the first index in an ascending ID list with
// ids[i] >= id.
func lowerBoundID(ids []ID, id ID) int {
	return sort.Search(len(ids), func(i int) bool { return ids[i] >= id })
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

func (ps localParts) degrees(v ID) (out, in int) {
	return len(ps.outSpan(v)), len(ps.inSpan(v))
}

func (ps localParts) hasAdjacentPred(v, pred ID) bool {
	return spanHasPred(ps.outSpan(v), pred) || spanHasPred(ps.inSpan(v), pred)
}

func (ps localParts) has(s, pred, o ID) bool { return spanHas(ps.outSpan(s), pred, o) }

func (ps localParts) role(v ID) uint8 {
	p, l := ps.locate(v)
	if p == nil {
		return 0
	}
	return p.roles[l]
}

func (ps localParts) predGroups(pred ID) [][]Spo {
	var groups [][]Spo
	for _, p := range ps {
		if p == nil {
			continue
		}
		i := lowerBoundID(p.predIDs, pred)
		if i < len(p.predIDs) && p.predIDs[i] == pred && p.predOff[i+1] > p.predOff[i] {
			groups = append(groups, p.predTriples[p.predOff[i]:p.predOff[i+1]])
		}
	}
	return groups
}
