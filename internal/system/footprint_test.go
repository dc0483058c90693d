package system

import (
	"runtime"
	"testing"

	"nocstar/internal/cache"
	"nocstar/internal/engine"
	"nocstar/internal/workload"
)

// bytesPerRun reports the mean heap bytes f allocates over runs calls,
// the byte counterpart of testing.AllocsPerRun.
func bytesPerRun(runs int, f func()) uint64 {
	f() // warm up, as AllocsPerRun does
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestConstructionFootprint pins what building a machine costs before it
// simulates a cycle. A small machine must cost little: the serve tier's
// jobs are 4-core runs of a few thousand references each, so any
// construction cost that does not shrink with the machine dominates them.
// The engine's wheel costs 8 bytes per cycle of horizon, and a cache
// level is one set-major line array.
func TestConstructionFootprint(t *testing.T) {
	spec, ok := workload.ByName("gups")
	if !ok {
		t.Fatal("gups workload missing")
	}
	cfg := Config{
		Org:            Nocstar,
		Cores:          4,
		Apps:           []App{{Spec: spec, Threads: 4, HammerSlice: HammerNone}},
		InstrPerThread: 10_000,
		Seed:           1,
	}
	newSystem := func() {
		if _, err := New(cfg); err != nil {
			t.Fatal(err)
		}
	}
	const (
		maxSystemBytes  = 3 << 20
		maxSystemAllocs = 500
		maxLLCAllocs    = 2
		maxEngineBytes  = 128 << 10
	)
	sysBytes, sysAllocs := bytesPerRun(5, newSystem), testing.AllocsPerRun(5, newSystem)
	llcAllocs := testing.AllocsPerRun(5, func() { cache.New(cache.LLCConfig()) })
	engBytes := bytesPerRun(5, func() { engine.New() })
	t.Logf("system.New: %d bytes, %.0f allocs; LLC: %.0f allocs; engine.New: %d bytes",
		sysBytes, sysAllocs, llcAllocs, engBytes)
	if sysBytes > maxSystemBytes {
		t.Errorf("system.New (NOCSTAR, 4 cores, gups) allocates %d bytes, want <= %d", sysBytes, maxSystemBytes)
	}
	if sysAllocs > maxSystemAllocs {
		t.Errorf("system.New (NOCSTAR, 4 cores, gups) makes %.0f allocations, want <= %d", sysAllocs, maxSystemAllocs)
	}
	if llcAllocs > maxLLCAllocs {
		t.Errorf("cache.New(LLCConfig()) makes %.0f allocations, want <= %d", llcAllocs, maxLLCAllocs)
	}
	if engBytes >= maxEngineBytes {
		t.Errorf("engine.New allocates %d bytes, want < %d", engBytes, maxEngineBytes)
	}
}
