// Package store implements the in-memory RDF graph that gqa queries. It is
// the substrate the paper assumes (the authors run on gStore [33]): a
// dictionary-encoded triple store with adjacency lists tuned for the two
// access patterns the Q/A engine needs — neighborhood expansion during
// subgraph matching (§4.2.2) and bidirectional BFS during offline path
// mining (§3).
//
// Terms are interned to dense uint32 IDs. A graph is built as outgoing and
// incoming (predicate, neighbor) lists and a predicate-major index, and
// frozen into sorted CSR arrays (frozen.go, shard.go) that from then on
// are its one copy of the adjacency; the class set records the rdf:type
// machinery used to classify class vertices (Definition 3, condition 2).
package store

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"gqa/internal/rdf"
)

// ID is a dense identifier for an interned term. IDs are assigned in
// insertion order starting at 0.
type ID uint32

// None is the invalid ID.
const None ID = ^ID(0)

// Edge is one adjacency entry: the predicate ID and the vertex at the other
// end.
type Edge struct {
	Pred ID
	To   ID
}

// Spo is a fully dictionary-encoded triple.
type Spo struct {
	S, P, O ID
}

// Graph is the RDF graph: it interns terms and accepts Add/Remove, and
// once frozen it is the Snapshot it froze into. Before the
// first freeze it holds its own insertion-order lists — out/in adjacency
// and the predicate-major index — and its read methods scan them in that
// order, which the offline miners' first-N sampling depends on. Freeze
// (frozen.go) keeps the built snapshot as the graph's base and releases
// those lists: from then on Out, In, Has, Degree, LabelOf, Match,
// UndirectedNeighbors, Triples, IsEntity, Entities and Stats read the
// current local snapshot (re-freezing first when a write is pending), in
// its sorted order. A write after a freeze thaws only the vertices it
// touches: their base spans are copied into per-vertex rows and edited
// there, and the next freeze reads those rows and the base spans
// everywhere else. The tests' references are twin graphs that are never
// frozen. The zero value is not usable; call New.
// Graph is safe for concurrent reads after loading completes; mutation is
// not synchronized, and the first freeze, which releases the lists, must
// not run concurrently with reads of them.
type Graph struct {
	terms termTable // the dictionary (terms.go)

	// The insertion-order lists, nil once the graph has been frozen. A
	// duplicate Add is found by a scan of the subject's out row: O(degree),
	// like every write.
	out    [][]Edge     // out[s]: edges s --p--> o, insertion order
	in     [][]Edge     // in[o]: edges s --p--> o stored as (p, s)
	byPred map[ID][]Spo // predicate-major index, insertion order

	// The rows of the vertices written since the last freeze, one map per
	// side: each starts as a copy of the vertex's base span. Nil until a
	// write after a freeze; the next freeze folds them in and drops them.
	thawOut, thawIn map[ID][]Edge

	rdfType   ID // ID of rdf:type, or None
	subClass  ID // ID of rdfs:subClassOf, or None
	labelPred ID // ID of rdfs:label, or None

	classes  map[ID]struct{} // vertices that are classes
	preds    map[ID]int      // predicate → triple count
	nTriples int             // distinct triples

	// gen counts mutations (every Add/Remove bumps it); snap holds the
	// snapshot most recently built, nil until the first freeze: it is
	// current while its generation is the graph's, and the base a write
	// thaws from either way. Builds are serialized by freezeMu. See
	// frozen.go for the freeze contract.
	gen      atomic.Uint64
	snap     atomic.Pointer[Snapshot]
	freezeMu sync.Mutex

	// Vertex-hash sharding: the configured shard count (0 = unsharded, one
	// part) each freeze partitions into.
	shardK int

	// remoteView, when set, overrides FrozenView with a snapshot whose
	// parts are served by other processes (see remote.go and
	// SetRemoteView): every read — matcher, SPARQL evaluator, linker, dict
	// paths — then routes through the shard-RPC client.
	remoteView atomic.Pointer[View]
}

// SetRemoteView installs (or, with nil, removes) a remote shard view as
// the graph's read surface. The coordinator keeps its local graph
// for the dictionary and term table; adjacency and pattern reads go over
// the wire. The caller owns consistency: the remote shards must serve the
// same frozen data the local graph holds (DialShards validates the
// generation and term count at connect time). Not safe to call
// concurrently with mutation.
func (g *Graph) SetRemoteView(v View) {
	if v == nil {
		g.remoteView.Store(nil)
		return
	}
	g.remoteView.Store(&v)
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		byPred:    make(map[ID][]Spo),
		rdfType:   None,
		subClass:  None,
		labelPred: None,
		classes:   make(map[ID]struct{}),
		preds:     make(map[ID]int),
	}
}

// Intern returns the ID for term, assigning a fresh one on first sight.
func (g *Graph) Intern(t rdf.Term) ID {
	id, fresh := g.terms.intern(t)
	if !fresh {
		return id
	}
	if g.snap.Load() == nil {
		g.out = append(g.out, nil)
		g.in = append(g.in, nil)
	}
	switch t.Value() {
	case rdf.RDFType:
		g.rdfType = id
	case rdf.RDFSSubClass:
		g.subClass = id
	case rdf.RDFSLabel:
		g.labelPred = id
	}
	return id
}

// Lookup returns the ID for term if it has been interned.
func (g *Graph) Lookup(t rdf.Term) (ID, bool) {
	id := g.terms.lookup(t)
	return id, id != None
}

// LookupIRI returns the ID for the IRI string if present.
func (g *Graph) LookupIRI(iri string) (ID, bool) {
	return g.Lookup(rdf.NewIRI(iri))
}

// Term returns the term for id. It panics on out-of-range IDs, which always
// indicate a programming error.
func (g *Graph) Term(id ID) rdf.Term { return g.terms.term(id) }

// TermString returns term id in N-Triples syntax, as Term(id).String()
// does. An IRI's is a substring of the term table, so it allocates
// nothing; any other term is rendered.
func (g *Graph) TermString(id ID) string {
	if g.terms.kind(id) == rdf.KindIRI {
		return g.terms.bracketed(id)
	}
	return g.terms.term(id).String()
}

// Terms returns a copy of the interned term table (index = ID) — the
// coordinator hands it to DialShards so remote views resolve Term lookups
// locally instead of over the wire.
func (g *Graph) Terms() []rdf.Term { return g.terms.terms() }

// Add inserts a triple, interning its terms. Duplicate triples are ignored.
// It returns an error only for RDF-invalid triples.
func (g *Graph) Add(t rdf.Triple) error {
	if !t.Valid() {
		return fmt.Errorf("store: invalid triple %s", t)
	}
	s := g.Intern(t.Subject)
	p := g.Intern(t.Predicate)
	o := g.Intern(t.Object)
	g.addIDs(s, p, o)
	return nil
}

// AddSPO inserts an already-encoded triple (terms must have been interned).
func (g *Graph) AddSPO(s, p, o ID) { g.addIDs(s, p, o) }

func (g *Graph) addIDs(s, p, o ID) {
	if slices.Contains(g.outRow(s), Edge{Pred: p, To: o}) {
		return
	}
	g.edit(s, p, o, func(row []Edge, e Edge) []Edge { return append(row, e) })
	if g.byPred != nil {
		g.byPred[p] = append(g.byPred[p], Spo{s, p, o})
	}
	g.invalidateFrozen()
	g.preds[p]++
	g.nTriples++
	if p == g.rdfType && g.rdfType != None {
		g.classes[o] = struct{}{}
	}
	if p == g.subClass && g.subClass != None {
		g.classes[s], g.classes[o] = struct{}{}, struct{}{}
	}
}

// edit applies fn to s's out row, with edge (p, o), and to o's in row,
// with (p, s): to the insertion-order lists before the first freeze; after it to
// thawed rows, thawing each from the base on the first write to it.
func (g *Graph) edit(s, p, o ID, fn func(row []Edge, e Edge) []Edge) {
	if g.snap.Load() == nil {
		g.out[s], g.in[o] = fn(g.out[s], Edge{Pred: p, To: o}), fn(g.in[o], Edge{Pred: p, To: s})
		return
	}
	if g.thawOut == nil {
		g.thawOut, g.thawIn = make(map[ID][]Edge), make(map[ID][]Edge)
	}
	g.thawOut[s] = fn(thaw(g.thawOut, s, g.outRow(s)), Edge{Pred: p, To: o})
	g.thawIn[o] = fn(thaw(g.thawIn, o, g.inRow(o)), Edge{Pred: p, To: s})
}

// thaw returns v's editable row on one side: the row itself once a write
// since the last freeze made one, else a copy of row, v's base span (which
// belongs to the immutable snapshot and is never written).
func thaw(rows map[ID][]Edge, v ID, row []Edge) []Edge {
	if _, ok := rows[v]; ok {
		return row
	}
	return slices.Clone(row)
}

// outRow and inRow return v's adjacency on one side as the next freeze
// reads it: the insertion-order list before the first freeze; after it, v's
// thawed row when a write since touched v, else v's base span.
func (g *Graph) outRow(v ID) []Edge {
	if row, ok := g.thawOut[v]; ok {
		return row
	}
	if base := g.snap.Load(); base != nil {
		return base.rd.outSpan(v)
	}
	return g.out[v]
}

func (g *Graph) inRow(v ID) []Edge {
	if row, ok := g.thawIn[v]; ok {
		return row
	}
	if base := g.snap.Load(); base != nil {
		return base.rd.inSpan(v)
	}
	return g.in[v]
}

// invalidateFrozen bumps the mutation generation, which retires the
// installed snapshot: Frozen and Freeze no longer return it, but it stays
// the base later writes thaw from, and snapshots already handed out remain
// valid views of the pre-mutation graph (see frozen.go).
func (g *Graph) invalidateFrozen() {
	g.gen.Add(1)
}

// Generation returns the graph's mutation generation: a counter bumped by
// every Add/Remove (Intern alone does not count — interning a term changes
// no triple). It is the invalidation token for anything derived from the
// triple set: the frozen snapshot records the generation it was built at
// (Snapshot.Generation), and the answer cache keys entries by it, so a
// mutation silently retires every cached result without any scan.
func (g *Graph) Generation() uint64 { return g.gen.Load() }

// Remove deletes the encoded triple, returning whether it was present.
// Terms stay interned (IDs remain stable); adjacency and predicate counts
// are updated. Removal is O(degree).
func (g *Graph) Remove(s, p, o ID) bool {
	if !slices.Contains(g.outRow(s), Edge{Pred: p, To: o}) {
		return false
	}
	g.edit(s, p, o, removeFirst[Edge])
	if g.byPred != nil {
		g.byPred[p] = removeFirst(g.byPred[p], Spo{s, p, o})
	}
	g.invalidateFrozen()
	// A class stays a class: classification is monotone, matching how the
	// paper treats vocabulary (a class does not stop being a class because
	// one instance was retracted).
	if g.preds[p]--; g.preds[p] == 0 {
		delete(g.preds, p)
	}
	g.nTriples--
	return true
}

// RemoveTriple deletes a term-level triple.
func (g *Graph) RemoveTriple(t rdf.Triple) bool {
	s, ok1 := g.Lookup(t.Subject)
	p, ok2 := g.Lookup(t.Predicate)
	o, ok3 := g.Lookup(t.Object)
	if !ok1 || !ok2 || !ok3 {
		return false
	}
	return g.Remove(s, p, o)
}

// RemovePredicate deletes every triple using predicate p, returning the
// number removed — the dictionary-maintenance trigger of §3.
func (g *Graph) RemovePredicate(p ID) int {
	var spos []Spo
	g.Match(Any, p, Any, func(spo Spo) bool { spos = append(spos, spo); return true })
	for _, spo := range spos {
		g.Remove(spo.S, spo.P, spo.O)
	}
	return len(spos)
}

// removeFirst deletes the first x from list in place, keeping the order.
func removeFirst[T comparable](list []T, x T) []T {
	if i := slices.Index(list, x); i >= 0 {
		return slices.Delete(list, i, i+1)
	}
	return list
}

// AddAll inserts every triple, stopping at the first invalid one.
func (g *Graph) AddAll(ts []rdf.Triple) error {
	for _, t := range ts {
		if err := g.Add(t); err != nil {
			return err
		}
	}
	return nil
}

// Load reads N-Triples from r into the graph.
func (g *Graph) Load(r io.Reader) error {
	d := rdf.NewDecoder(r)
	for {
		t, err := d.Decode()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := g.Add(t); err != nil {
			return err
		}
	}
}

// current is the snapshot the read methods answer from once the graph has
// been frozen — a pointer load, or a re-freeze when a write is pending —
// and nil before the first freeze, when the insertion-order lists are the graph.
// Its parts are local: the read methods use them directly.
func (g *Graph) current() *Snapshot {
	if g.snap.Load() == nil {
		return nil
	}
	if sn := g.Frozen(); sn != nil {
		return sn
	}
	return g.Freeze()
}

// Has reports whether the encoded triple is present.
func (g *Graph) Has(s, p, o ID) bool {
	if sn := g.current(); sn != nil {
		return sn.Has(s, p, o)
	}
	return int(s) < len(g.out) && slices.Contains(g.out[s], Edge{Pred: p, To: o})
}

// Out returns the outgoing adjacency list of v: in insertion order before
// the first freeze, (Pred, To)-sorted after. The returned slice is owned
// by the graph and must not be modified.
func (g *Graph) Out(v ID) []Edge {
	if sn := g.current(); sn != nil {
		return sn.parts.outSpan(v)
	}
	return g.out[v]
}

// In returns the incoming adjacency list of v (each Edge.To is the
// *subject* of the underlying triple), ordered as Out.
func (g *Graph) In(v ID) []Edge {
	if sn := g.current(); sn != nil {
		return sn.parts.inSpan(v)
	}
	return g.in[v]
}

// Degree returns the total (in+out) degree of v. The paper uses degree as a
// popularity prior during entity linking and in the complexity analysis.
func (g *Graph) Degree(v ID) int {
	if sn := g.current(); sn != nil {
		return len(sn.parts.outSpan(v)) + len(sn.parts.inSpan(v))
	}
	return len(g.out[v]) + len(g.in[v])
}

// NumTerms returns the number of interned terms.
func (g *Graph) NumTerms() int { return g.terms.len() }

// NumTriples returns the number of distinct triples.
func (g *Graph) NumTriples() int { return g.nTriples }

// NumPredicates returns the number of distinct predicates in use.
func (g *Graph) NumPredicates() int { return len(g.preds) }

// IsClass reports whether v is a class vertex: it is the object of an
// rdf:type edge or appears in an rdfs:subClassOf edge (§2.2).
func (g *Graph) IsClass(v ID) bool {
	_, ok := g.classes[v]
	return ok
}

// IsEntity reports whether v is an entity vertex: an IRI that occurs as a
// subject or object and is neither a class nor used as a predicate. This
// is the definition the freeze's role pass precomputes (View.IsEntity).
func (g *Graph) IsEntity(v ID) bool {
	if g.terms.kind(v) != rdf.KindIRI || g.IsClass(v) {
		return false
	}
	if _, isPred := g.preds[v]; isPred {
		return false
	}
	return g.Degree(v) > 0
}

// TypeID returns the interned ID of rdf:type, or None if the vocabulary
// term never appeared.
func (g *Graph) TypeID() ID { return g.rdfType }

// IsSchemaPred reports whether p is a schema predicate (rdf:type,
// rdfs:subClassOf, rdfs:label). Schema edges classify and name vertices;
// they are not data relations, so predicate-path mining skips them —
// otherwise every pair of same-typed entities would be "connected" by
// ⟨type, type⁻¹⟩.
func (g *Graph) IsSchemaPred(p ID) bool {
	return p == g.rdfType || p == g.subClass || p == g.labelPred
}

// LabelPredID returns the interned ID of rdfs:label, or None.
func (g *Graph) LabelPredID() ID { return g.labelPred }

// LabelOf returns the preferred human label of v: the first rdfs:label
// literal in Out's order if any — once frozen, the one the snapshot's label
// column holds — otherwise the IRI-derived label.
func (g *Graph) LabelOf(v ID) string {
	if sn := g.current(); sn != nil {
		if int(v) < len(sn.labels) && sn.labels[v] != None {
			return sn.terms.value(sn.labels[v])
		}
		return g.terms.term(v).Label()
	}
	if lp := g.labelPred; lp != None {
		for _, e := range g.out[v] {
			if e.Pred == lp && g.terms.kind(e.To) == rdf.KindLiteral {
				return g.terms.value(e.To)
			}
		}
	}
	return g.terms.term(v).Label()
}

// PredCount returns the number of triples using predicate p.
func (g *Graph) PredCount(p ID) int { return g.preds[p] }

// Entities returns all entity vertex IDs in ascending order; readers take
// the precomputed View.Entities instead.
func (g *Graph) Entities() []ID {
	var out []ID
	for v := range g.terms.len() {
		if g.IsEntity(ID(v)) {
			out = append(out, ID(v))
		}
	}
	return out
}

// Classes returns all class vertex IDs in ascending order.
func (g *Graph) Classes() []ID {
	out := make([]ID, 0, len(g.classes))
	for c := range g.classes {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Triples copies every triple out, in Match(Any, Any, Any) order: none in
// particular before the first freeze, (P, S, O) after. Intended for
// serialization and tests, not hot paths.
func (g *Graph) Triples() []rdf.Triple {
	out := make([]rdf.Triple, 0, g.NumTriples())
	g.Match(Any, Any, Any, func(spo Spo) bool {
		out = append(out, rdf.Triple{Subject: g.Term(spo.S), Predicate: g.Term(spo.P), Object: g.Term(spo.O)})
		return true
	})
	return out
}

// Stats summarizes the graph in the shape of the paper's Table 4.
type Stats struct {
	Entities   int
	Classes    int
	Literals   int
	Triples    int
	Predicates int
}

// Stats computes summary statistics per vertex; readers take the
// snapshot's, precomputed at freeze, instead.
func (g *Graph) Stats() Stats {
	st := Stats{
		Triples:    g.NumTriples(),
		Predicates: g.NumPredicates(),
		Classes:    len(g.classes),
	}
	for v := range g.terms.len() {
		id := ID(v)
		switch {
		case g.terms.kind(id) == rdf.KindLiteral:
			st.Literals++
		case g.IsEntity(id):
			st.Entities++
		}
	}
	return st
}
