package store

import "gqa/internal/rdf"

// View is the read-only query surface of a frozen graph. Every read the
// online pipeline performs — pattern scans, neighborhood pruning,
// per-predicate degrees, role tests — goes through it; the mutable Graph
// only builds (Add/Remove/Intern) and enumerates in insertion order for
// the offline miner. *Snapshot is the one implementation; the interface
// exists so tests and the benchmark can wrap it in counting decorators.
//
// A View is immutable and self-contained: it stays a valid pre-mutation
// read surface forever, even while the Graph it froze from is mutated.
// A vertex at or beyond NumTerms (including None) answers empty on every
// adjacency, membership, degree and role read; only Term, a table lookup,
// panics on an ID that was never interned.
type View interface {
	// Generation is the graph mutation generation the view was built at.
	Generation() uint64
	// NumTerms and NumTriples are the dictionary and triple counts at
	// freeze time.
	NumTerms() int
	NumTriples() int
	// Term returns the term for id (IDs are stable across freezes).
	Term(id ID) rdf.Term
	// Match calls fn for every triple matching the (s, p, o) pattern in
	// (Pred, To)- / (S, O)-sorted order, stopping early when fn returns
	// false.
	Match(s, p, o ID, fn func(Spo) bool)
	// Has reports whether the triple is present.
	Has(s, p, o ID) bool
	// HasAdjacentPred reports whether v has any incident edge (either
	// direction) labeled p — the §4.2.2 pruning test.
	HasAdjacentPred(v, p ID) bool
	// OutPred and InPred return v's per-predicate edge runs sorted by To
	// (for InPred, Edge.To is the subject of the underlying triple).
	OutPred(v, p ID) []Edge
	InPred(v, p ID) []Edge
	// Per-predicate and total degrees.
	OutPredDegree(v, p ID) int
	InPredDegree(v, p ID) int
	OutDegree(v ID) int
	InDegree(v ID) int
	Degree(v ID) int
	// Role bitmap reads.
	IsEntity(v ID) bool
	IsClass(v ID) bool
	// Entities returns all entity vertex IDs ascending (a private copy).
	Entities() []ID
	// Stats returns the freeze-time Table-4 summary.
	Stats() Stats
	// TypeID returns the interned ID of rdf:type, or None.
	TypeID() ID
}

// reader is the primitive read set every View method is written over, one
// method per data opcode of the shard-RPC protocol (shardrpc.go). It has
// exactly two implementers: localParts, the in-process frozen arrays (also
// what a shard server answers from), and *rpcReader, the client that sends
// each read to the shard server owning the vertex. Spans are (Pred, To)-
// sorted and may alias immutable storage; an unknown vertex reads empty.
type reader interface {
	outSpan(v ID) []Edge
	inSpan(v ID) []Edge
	outPred(v, p ID) []Edge
	inPred(v, p ID) []Edge
	degrees(v ID) (out, in int)
	hasAdjacentPred(v, p ID) bool
	has(s, p, o ID) bool
	role(v ID) uint8
	// predGroups returns every shard's (S, O)-sorted triple group of
	// predicate p, empty groups omitted.
	predGroups(p ID) [][]Spo
}
