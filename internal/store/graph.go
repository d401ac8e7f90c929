// Package store implements the in-memory RDF graph that gqa queries. It is
// the substrate the paper assumes (the authors run on gStore [33]): a
// dictionary-encoded triple store with adjacency lists tuned for the two
// access patterns the Q/A engine needs — neighborhood expansion during
// subgraph matching (§4.2.2) and bidirectional BFS during offline path
// mining (§3).
//
// Terms are interned to dense uint32 IDs. For every vertex the store keeps
// outgoing and incoming (predicate, neighbor) lists, a predicate-major
// index for SPARQL-style pattern scans, and the rdf:type machinery used to
// classify class vertices (Definition 3, condition 2).
package store

import (
	"fmt"
	"io"
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

// Graph is the mutable in-memory RDF graph: the builder. It interns terms,
// accepts Add/Remove, and enumerates its triples in insertion order for the
// offline miner; every query reads the frozen Snapshot it compacts into
// (FrozenView, see frozen.go). Its read methods — Match, Has, Out, In,
// Degree, IsClass, IsEntity, Entities, Stats, TypesOf, HasType, HasTriple —
// are written over the adjacency lists, independently of the frozen arrays,
// and are the tests' reference for them: TestFrozenEquivalence, the
// shard-count and remote equivalence tables, the matcher's brute-force
// reference and the file-format differentials compare a Snapshot against
// them. The last three have no other caller and stay for that alone
// (surface_test.go lists them). The zero value is not usable; call New.
// Graph is safe for concurrent reads after loading completes; mutation is
// not synchronized.
type Graph struct {
	terms []rdf.Term
	index map[string]ID // rdf.Term.Key() → ID

	out [][]Edge // out[s]: edges s --p--> o
	in  [][]Edge // in[o]: edges s --p--> o stored as (p, s)

	triples map[Spo]struct{} // set for dedup + O(1) Has
	byPred  map[ID][]Spo     // predicate-major index

	rdfType   ID // ID of rdf:type, or None
	subClass  ID // ID of rdfs:subClassOf, or None
	labelPred ID // ID of rdfs:label, or None

	classes   map[ID]struct{} // vertices that are classes
	instances map[ID][]ID     // class → direct instances
	preds     map[ID]int      // predicate → triple count

	// gen counts mutations (every Add/Remove bumps it); snap holds the
	// snapshot frozen at some generation, cleared on mutation. Builds are
	// serialized by freezeMu. See frozen.go for the freeze contract.
	gen      atomic.Uint64
	snap     atomic.Pointer[Snapshot]
	freezeMu sync.Mutex

	// Vertex-hash sharding. shardK is the configured shard count (0 =
	// unsharded, one part); shardGens carries one mutation generation per
	// shard — Add/Remove bumps only the endpoint shards' entries, so the
	// next freeze rebuilds exactly the dirty parts and takes the clean ones
	// from lastSharded, the most recent sharded snapshot (under freezeMu).
	shardK      int
	shardGens   []atomic.Uint64
	lastSharded *Snapshot

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
		index:     make(map[string]ID),
		triples:   make(map[Spo]struct{}),
		byPred:    make(map[ID][]Spo),
		rdfType:   None,
		subClass:  None,
		labelPred: None,
		classes:   make(map[ID]struct{}),
		instances: make(map[ID][]ID),
		preds:     make(map[ID]int),
	}
}

// Intern returns the ID for term, assigning a fresh one on first sight.
func (g *Graph) Intern(t rdf.Term) ID {
	key := t.Key()
	if id, ok := g.index[key]; ok {
		return id
	}
	id := ID(len(g.terms))
	g.terms = append(g.terms, t)
	g.index[key] = id
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
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
	id, ok := g.index[t.Key()]
	return id, ok
}

// LookupIRI returns the ID for the IRI string if present.
func (g *Graph) LookupIRI(iri string) (ID, bool) {
	return g.Lookup(rdf.NewIRI(iri))
}

// Term returns the term for id. It panics on out-of-range IDs, which always
// indicate a programming error.
func (g *Graph) Term(id ID) rdf.Term { return g.terms[id] }

// Terms returns a copy of the interned term table (index = ID) — the
// coordinator hands it to DialShards so remote views resolve Term lookups
// locally instead of over the wire.
func (g *Graph) Terms() []rdf.Term {
	return append([]rdf.Term(nil), g.terms...)
}

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
	spo := Spo{s, p, o}
	if _, dup := g.triples[spo]; dup {
		return
	}
	g.triples[spo] = struct{}{}
	g.invalidateFrozen()
	// First use of predicate p flips its vertex's rolePred bit, so its
	// shard must re-run the role pass too, not just the endpoints'.
	g.dirtyShards(s, o, p, g.preds[p] == 0)
	g.out[s] = append(g.out[s], Edge{Pred: p, To: o})
	g.in[o] = append(g.in[o], Edge{Pred: p, To: s})
	g.byPred[p] = append(g.byPred[p], spo)
	g.preds[p]++
	if p == g.rdfType && g.rdfType != None {
		g.markClass(o)
		g.instances[o] = append(g.instances[o], s)
	}
	if p == g.subClass && g.subClass != None {
		g.markClass(s)
		g.markClass(o)
	}
}

func (g *Graph) markClass(c ID) {
	g.classes[c] = struct{}{}
}

// invalidateFrozen bumps the mutation generation and drops the installed
// frozen snapshot (snapshots already handed out remain valid views of the
// pre-mutation graph; see frozen.go).
func (g *Graph) invalidateFrozen() {
	g.gen.Add(1)
	g.snap.Store(nil)
}

// dirtyShards bumps the shard generations a mutation of triple (s, p, o)
// invalidates — the endpoint shards, plus p's shard when the mutation
// flips p's existence as a predicate (predFlip). The next freeze rebuilds
// only the parts bumped here.
func (g *Graph) dirtyShards(s, o, p ID, predFlip bool) {
	k := g.shardK
	if k <= 1 {
		return
	}
	ss, os := int(s)%k, int(o)%k
	g.shardGens[ss].Add(1)
	if os != ss {
		g.shardGens[os].Add(1)
	}
	if ps := int(p) % k; predFlip && ps != ss && ps != os {
		g.shardGens[ps].Add(1)
	}
}

// Generation returns the graph's mutation generation: a counter bumped by
// every Add/Remove (Intern alone does not count — interning a term changes
// no triple). It is the invalidation token for anything derived from the
// triple set: the frozen snapshot records the generation it was built at
// (Snapshot.Generation), and the answer cache keys entries by it, so a
// mutation silently retires every cached result without any scan.
func (g *Graph) Generation() uint64 { return g.gen.Load() }

// Remove deletes the encoded triple, returning whether it was present.
// Terms stay interned (IDs remain stable); adjacency, predicate counts and
// class-instance lists are updated. Removal is O(degree).
func (g *Graph) Remove(s, p, o ID) bool {
	spo := Spo{s, p, o}
	if _, ok := g.triples[spo]; !ok {
		return false
	}
	delete(g.triples, spo)
	g.invalidateFrozen()
	// Last use of predicate p clears its vertex's rolePred bit (the preds
	// entry is deleted below), so its shard re-runs the role pass.
	g.dirtyShards(s, o, p, g.preds[p] == 1)
	g.out[s] = removeEdge(g.out[s], Edge{Pred: p, To: o})
	g.in[o] = removeEdge(g.in[o], Edge{Pred: p, To: s})
	g.byPred[p] = removeSpo(g.byPred[p], spo)
	if g.preds[p]--; g.preds[p] == 0 {
		delete(g.preds, p)
	}
	if p == g.rdfType && g.rdfType != None {
		g.instances[o] = removeID(g.instances[o], s)
		// o stays a class: classification is monotone, matching how the
		// paper treats vocabulary (a class does not stop being a class
		// because one instance was retracted).
	}
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
	spos := append([]Spo(nil), g.byPred[p]...)
	for _, spo := range spos {
		g.Remove(spo.S, spo.P, spo.O)
	}
	return len(spos)
}

func removeEdge(es []Edge, e Edge) []Edge {
	for i := range es {
		if es[i] == e {
			return append(es[:i], es[i+1:]...)
		}
	}
	return es
}

func removeSpo(ts []Spo, t Spo) []Spo {
	for i := range ts {
		if ts[i] == t {
			return append(ts[:i], ts[i+1:]...)
		}
	}
	return ts
}

func removeID(ids []ID, id ID) []ID {
	for i := range ids {
		if ids[i] == id {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
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

// Has reports whether the encoded triple is present.
func (g *Graph) Has(s, p, o ID) bool {
	_, ok := g.triples[Spo{s, p, o}]
	return ok
}

// HasTriple reports whether the term-level triple is present.
func (g *Graph) HasTriple(t rdf.Triple) bool {
	s, ok := g.Lookup(t.Subject)
	if !ok {
		return false
	}
	p, ok := g.Lookup(t.Predicate)
	if !ok {
		return false
	}
	o, ok := g.Lookup(t.Object)
	if !ok {
		return false
	}
	return g.Has(s, p, o)
}

// Out returns the outgoing adjacency list of v. The returned slice is owned
// by the graph and must not be modified.
func (g *Graph) Out(v ID) []Edge { return g.out[v] }

// In returns the incoming adjacency list of v (each Edge.To is the
// *subject* of the underlying triple).
func (g *Graph) In(v ID) []Edge { return g.in[v] }

// Degree returns the total (in+out) degree of v. The paper uses degree as a
// popularity prior during entity linking and in the complexity analysis.
func (g *Graph) Degree(v ID) int { return len(g.out[v]) + len(g.in[v]) }

// NumTerms returns the number of interned terms.
func (g *Graph) NumTerms() int { return len(g.terms) }

// NumTriples returns the number of distinct triples.
func (g *Graph) NumTriples() int { return len(g.triples) }

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
	if !g.terms[v].IsIRI() || g.IsClass(v) {
		return false
	}
	if _, isPred := g.preds[v]; isPred {
		return false
	}
	return len(g.out[v]) > 0 || len(g.in[v]) > 0
}

// TypesOf returns the direct classes of entity v, in insertion order.
func (g *Graph) TypesOf(v ID) []ID {
	if g.rdfType == None {
		return nil
	}
	var out []ID
	for _, e := range g.out[v] {
		if e.Pred == g.rdfType {
			out = append(out, e.To)
		}
	}
	return out
}

// HasType reports whether entity v has direct type c.
func (g *Graph) HasType(v, c ID) bool {
	if g.rdfType == None {
		return false
	}
	return g.Has(v, g.rdfType, c)
}

// InstancesOf returns the direct instances of class c. The returned slice
// is owned by the graph.
func (g *Graph) InstancesOf(c ID) []ID { return g.instances[c] }

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
// literal if any, otherwise the IRI-derived label.
func (g *Graph) LabelOf(v ID) string {
	if g.labelPred != None {
		for _, e := range g.out[v] {
			if e.Pred == g.labelPred && g.terms[e.To].IsLiteral() {
				return g.terms[e.To].Value()
			}
		}
	}
	return g.terms[v].Label()
}

// PredCount returns the number of triples using predicate p.
func (g *Graph) PredCount(p ID) int { return g.preds[p] }

// Entities returns all entity vertex IDs in ascending order, by per-vertex
// classification; readers take the precomputed View.Entities instead.
func (g *Graph) Entities() []ID {
	var out []ID
	for v := range g.terms {
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

// Triples copies every triple out in unspecified order. Intended for
// serialization and tests, not hot paths.
func (g *Graph) Triples() []rdf.Triple {
	out := make([]rdf.Triple, 0, len(g.triples))
	for spo := range g.triples {
		out = append(out, rdf.Triple{
			Subject:   g.terms[spo.S],
			Predicate: g.terms[spo.P],
			Object:    g.terms[spo.O],
		})
	}
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

// Stats computes summary statistics from the mutable structures; readers
// take the precomputed View.Stats instead.
func (g *Graph) Stats() Stats {
	st := Stats{
		Triples:    g.NumTriples(),
		Predicates: g.NumPredicates(),
		Classes:    len(g.classes),
	}
	for v := range g.terms {
		id := ID(v)
		switch {
		case g.terms[id].IsLiteral():
			st.Literals++
		case g.IsEntity(id):
			st.Entities++
		}
	}
	return st
}
