package store

// Test-only exports for the external tests (package store_test), which
// drive the real matcher over loopback shards and so cannot live inside
// the package (core imports store): the batch opcode, to tell batch frames
// from single reads, and the frame-level seam the in-package tests use.
const OpBatch = shrOpBatch

var StartFrameShards = startFrameShards

func (s *ShardServer) Handle(req []byte) ([]byte, bool) { return s.handle(req) }
