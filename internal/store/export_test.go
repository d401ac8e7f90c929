package store

import "gqa/internal/rdf"

// Test-only exports for the external tests (package store_test), which
// drive the real matcher over loopback shards or build the workload KBs and
// so cannot live inside the package (core and bench import store): the
// batch opcode, to tell batch frames from single reads, the frame-level
// seam the in-package tests use, and the predicate-scan checks against the
// reference scatter.
const OpBatch = shrOpBatch

// The opcodes and the status byte a forged reply is built from
// (FuzzRemoteReply).
const (
	OpOut      = shrOpOut
	OpInPred   = shrOpInPred
	OpPredIDs  = shrOpPredIDs
	OpEntities = shrOpEntities
	StatusOK   = shrStatusOK
)

var (
	StartFrameShards = startFrameShards
	CheckLocalScans  = checkLocalScans
	CheckRemoteScans = checkRemoteScans
)

func (s *ShardServer) Handle(req []byte) ([]byte, bool) { return s.handle(req) }

// Shard is the index of the part the server serves.
func (s *ShardServer) Shard() int { return s.part.Shard() }

// CheckTermTable holds the term table to the parent's dictionary on a
// graph's terms (terms_test.go). InternTerms interns terms into a bare
// table and returns the bytes its arrays hold at their capacities: the
// arena, the offset and tag columns, the index and the extras' text.
var CheckTermTable = checkTermTable

func InternTerms(terms []rdf.Term) int64 {
	var t termTable
	for _, x := range terms {
		t.intern(x)
	}
	n := int64(t.buf.Cap()) + 4*int64(cap(t.off)+cap(t.tag)+cap(t.index))
	for _, x := range t.extras {
		n += int64(len(x))
	}
	return n
}

// CheckLabels holds LabelOf's column to the parent's scan on a graph in
// every shape (labels_reference_test.go).
var CheckLabels = checkLabels
