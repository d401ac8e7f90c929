package nlp

// DiffParse is differ (reference_test.go), for the workload comparison of
// package nlp_test, which imports internal/bench (and through it
// internal/core, which imports this package).
func DiffParse(q string) (diff string, stale, bad bool) { return differ(q) }
