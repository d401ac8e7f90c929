// Package faultpoint provides named fault-injection points for testing the
// pipeline's degradation paths. Production code calls Hit(name) at a few
// strategic places (the matcher's extend loop, the SPARQL join loop, the
// store's pattern scan); with no faults armed the call is a single atomic
// load and the package is a no-op. Tests arm deterministic delays or
// panics with Set, then verify the engine degrades to partial results or a
// structured error instead of hanging or crashing.
package faultpoint

import (
	"sync"
	"sync/atomic"
	"time"
)

// Names of the injection points wired into the engine. Tests reference
// these instead of magic strings.
const (
	MatcherExtend = "matcher.extend" // core: each subgraph-search extension
	MatcherWorker = "matcher.worker" // core: each seed
	SparqlEval    = "sparql.eval"    // sparql: each backtracking join step
	StoreMatch    = "store.match"    // store: each pattern scan
	RPCDial       = "rpc.dial"       // store: each shard-RPC connection dial (client side)
	RPCCall       = "rpc.call"       // store: each shard-RPC request served (server side)
)

// Fault describes what an armed point does on each hit: sleep for Delay,
// then return Err from HitErr if non-nil, then panic with PanicMsg if
// non-empty. Any combination may be set. Hit ignores Err (error injection
// only makes sense at points whose caller checks HitErr).
type Fault struct {
	Delay    time.Duration
	Err      error
	PanicMsg string
}

var (
	armed  atomic.Int32 // number of armed points; 0 = fast no-op path
	mu     sync.Mutex
	points map[string]Fault
	hits   map[string]int
)

// Hit fires the named point. With nothing armed it is a no-op costing one
// atomic load; an armed point sleeps and/or panics as configured.
func Hit(name string) {
	if armed.Load() == 0 {
		return
	}
	hit(name)
}

// HitErr fires the named point and returns the armed error, if any — the
// hook for injection points on fallible paths (the shard-RPC dial and
// call sites). With nothing armed it costs one atomic load and returns
// nil; an armed point sleeps, then surfaces Err, then panics, in that
// order.
func HitErr(name string) error {
	if armed.Load() == 0 {
		return nil
	}
	return hit(name)
}

func hit(name string) error {
	mu.Lock()
	f, ok := points[name]
	if ok {
		hits[name]++
	}
	mu.Unlock()
	if !ok {
		return nil
	}
	if f.Delay > 0 {
		time.Sleep(f.Delay)
	}
	if f.Err != nil {
		return f.Err
	}
	if f.PanicMsg != "" {
		panic("faultpoint " + name + ": " + f.PanicMsg)
	}
	return nil
}

// Set arms the named point (the test hook). Re-arming an armed point
// replaces its fault.
func Set(name string, f Fault) {
	mu.Lock()
	defer mu.Unlock()
	if points == nil {
		points = make(map[string]Fault)
		hits = make(map[string]int)
	}
	if _, ok := points[name]; !ok {
		armed.Add(1)
	}
	points[name] = f
}

// Clear disarms the named point.
func Clear(name string) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := points[name]; ok {
		delete(points, name)
		armed.Add(-1)
	}
}

// Reset disarms every point and zeroes hit counts.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	armed.Store(0)
	points = nil
	hits = nil
}

// Hits returns how many times the named point fired since it was armed.
func Hits(name string) int {
	mu.Lock()
	defer mu.Unlock()
	return hits[name]
}
