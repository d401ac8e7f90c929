package flight

import (
	"runtime"

	"gqa/internal/obs"
)

// Runtime telemetry: the process-level signals that attribute tail latency
// when no request-level stage explains it (goroutine pileups, heap growth).
// Published into obs.Default on the Recorder's ticker.
var (
	rtGoroutines = obs.DefaultGauge("gqa_runtime_goroutines",
		"live goroutines at the last collector tick")
	rtHeapBytes = obs.DefaultGauge("gqa_runtime_heap_bytes",
		"heap bytes in use (MemStats.HeapAlloc) at the last collector tick")
)

func collectRuntime() {
	rtGoroutines.Set(int64(runtime.NumGoroutine()))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rtHeapBytes.Set(int64(ms.HeapAlloc))
}
