package store

// Test-only exports for the external tests (package store_test), which
// drive the real matcher over loopback shards or build the workload KBs and
// so cannot live inside the package (core and bench import store): the
// batch opcode, to tell batch frames from single reads, the frame-level
// seam the in-package tests use, and the predicate-scan checks against the
// reference scatter.
const OpBatch = shrOpBatch

var (
	StartFrameShards  = startFrameShards
	CheckPredGroups   = checkPredGroups
	CheckRemoteGroups = checkRemoteGroups
)

func (s *ShardServer) Handle(req []byte) ([]byte, bool) { return s.handle(req) }
