package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nocstar/internal/vm"
)

func small() *Cache {
	return New(Config{Name: "t", Sets: 4, Ways: 2, HitLatency: 3})
}

func TestLookupMissThenHit(t *testing.T) {
	c := small()
	if c.Lookup(0x1000) {
		t.Fatal("empty cache hit")
	}
	c.Insert(0x1000)
	if !c.Lookup(0x1000) {
		t.Fatal("inserted line missed")
	}
	// Same line, different byte.
	if !c.Lookup(0x1004) {
		t.Fatal("same-line byte missed")
	}
	// Different line.
	if c.Lookup(0x2000) {
		t.Fatal("different line hit")
	}
	hits, misses := c.Stats()
	if hits != 2 || misses != 2 {
		t.Fatalf("stats = %d hits %d misses", hits, misses)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small() // 4 sets x 2 ways, 64B lines: set = (pa/64)%4
	// Three lines in set 0: pa = 0, 256, 512 (line addrs 0, 4, 8).
	c.Insert(0)
	c.Insert(256)
	c.Lookup(0) // make line 0 MRU
	c.Insert(512)
	if !c.Lookup(0) {
		t.Fatal("MRU line evicted")
	}
	if c.Lookup(256) {
		t.Fatal("LRU line survived")
	}
	if !c.Lookup(512) {
		t.Fatal("new line missing")
	}
}

func TestInsertExistingRefreshes(t *testing.T) {
	c := small()
	c.Insert(0)
	c.Insert(256)
	c.Insert(0) // refresh, not duplicate
	c.Insert(512)
	if !c.Lookup(0) {
		t.Fatal("refreshed line evicted")
	}
}

func TestFlush(t *testing.T) {
	c := small()
	c.Insert(0x1000)
	c.Flush()
	if c.Lookup(0x1000) {
		t.Fatal("line survived flush")
	}
}

// An invalidated way is refilled before any valid way is evicted, even
// when the invalidated way was not the set's LRU: the first invalid way
// wins, and only a full set falls back to the lowest LRU stamp.
func TestInsertRefillsInvalidatedWay(t *testing.T) {
	c := New(Config{Name: "t", Sets: 1, Ways: 4, HitLatency: 1})
	a, b, d, e, f := vm.PhysAddr(0), vm.PhysAddr(64), vm.PhysAddr(128), vm.PhysAddr(192), vm.PhysAddr(256)
	for _, pa := range []vm.PhysAddr{a, b, d, e} { // ways 0-3, ticks 1-4
		c.Insert(pa)
	}
	c.Lookup(e) // tick 5; a (way 0) is now the LRU way
	// The sweep starts at the tick: way 5%4 = 1 (b) is invalidated and
	// keeps its LRU stamp, which is older than every valid way but a's.
	c.EvictRandomLines(1)
	c.Insert(f)
	for _, want := range []struct {
		pa      vm.PhysAddr
		present bool
	}{{a, true}, {b, false}, {d, true}, {e, true}, {f, true}} {
		if got := c.Lookup(want.pa); got != want.present {
			t.Fatalf("line %#x present = %v, want %v", uint64(want.pa), got, want.present)
		}
	}
}

// A snapshot restored into a fresh cache reproduces the source's exact
// hit/miss sequence from that point on: lines, invalidated ways and the
// LRU clock all carry over.
func TestSnapshotRoundTrip(t *testing.T) {
	cfg := Config{Name: "s", Sets: 16, Ways: 4, HitLatency: 1}
	rng := rand.New(rand.NewSource(11))
	addr := func() vm.PhysAddr { return vm.PhysAddr(rng.Intn(256) * LineBytes) }
	access := func(c *Cache, pa vm.PhysAddr) bool {
		hit := c.Lookup(pa)
		if !hit {
			c.Insert(pa)
		}
		return hit
	}
	src := New(cfg)
	for i := 0; i < 2000; i++ {
		access(src, addr())
		if i%97 == 0 {
			src.EvictRandomLines(5)
		}
	}
	snap := src.Snapshot()
	stream := make([]vm.PhysAddr, 2000)
	for i := range stream {
		stream[i] = addr()
	}
	trace := func(c *Cache) []bool {
		out := make([]bool, len(stream))
		for i, pa := range stream {
			out[i] = access(c, pa)
		}
		return out
	}
	restored := New(cfg)
	restored.RestoreSnapshot(snap)
	want, got, cold := trace(src), trace(restored), trace(New(cfg))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("access %d (%#x): restored hit = %v, source hit = %v", i, uint64(stream[i]), got[i], want[i])
		}
	}
	same := true
	for i := range want {
		same = same && cold[i] == want[i]
	}
	if same {
		t.Fatal("a cold cache matches the source's trace: the stream does not exercise the snapshot")
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	for _, cfg := range []Config{
		{Sets: 3, Ways: 2},
		{Sets: 0, Ways: 2},
		{Sets: 4, Ways: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := NewHierarchy(100,
		Config{Name: "L1", Sets: 2, Ways: 1, HitLatency: 4},
		Config{Name: "L2", Sets: 8, Ways: 2, HitLatency: 12},
	)
	lat, lvl := h.Access(0x4000)
	if lat != 100 || lvl != 2 {
		t.Fatalf("cold access = %d cycles level %d", lat, lvl)
	}
	lat, lvl = h.Access(0x4000)
	if lat != 4 || lvl != 0 {
		t.Fatalf("warm access = %d cycles level %d", lat, lvl)
	}
}

func TestHierarchyInclusiveFill(t *testing.T) {
	h := NewHierarchy(100,
		Config{Name: "L1", Sets: 2, Ways: 1, HitLatency: 4},
		Config{Name: "L2", Sets: 8, Ways: 4, HitLatency: 12},
	)
	h.Access(0x0000) // set 0 of L1
	h.Access(0x0080) // also L1 set 0 (line 2 % 2 = 0): evicts 0x0000 from L1
	lat, lvl := h.Access(0x0000)
	if lvl != 1 || lat != 12 {
		t.Fatalf("expected L2 hit after L1 eviction, got level %d lat %d", lvl, lat)
	}
	// And the L2 hit refills L1.
	lat, lvl = h.Access(0x0000)
	if lvl != 0 || lat != 4 {
		t.Fatalf("expected L1 hit after refill, got level %d lat %d", lvl, lat)
	}
}

func TestHierarchyStats(t *testing.T) {
	h := DefaultHierarchy()
	h.Access(0x1234)
	h.Access(0x1234)
	acc, hits, fills := h.Stats()
	if acc != 2 || fills != 1 || hits[0] != 1 {
		t.Fatalf("acc=%d hits=%v fills=%d", acc, hits, fills)
	}
	if h.Levels() != 3 || h.MemLatency() != 200 {
		t.Fatalf("default hierarchy shape wrong: %d levels mem %d", h.Levels(), h.MemLatency())
	}
}

func TestDefaultHierarchyPaperLatencies(t *testing.T) {
	h := DefaultHierarchy()
	wants := []int{4, 12, 50}
	for i, w := range wants {
		if got := h.Level(i).Config().HitLatency; got != w {
			t.Fatalf("level %d latency = %d, want %d (paper Haswell)", i, got, w)
		}
	}
}

func TestPolluteEvicts(t *testing.T) {
	h := NewHierarchy(100,
		Config{Name: "L1", Sets: 2, Ways: 1, HitLatency: 4},
		Config{Name: "L2", Sets: 2, Ways: 1, HitLatency: 12},
	)
	h.Access(0x0000)
	h.Access(0x0040)
	h.Pollute(16) // larger than both caches: everything gone
	if lat, _ := h.Access(0x0000); lat != 100 {
		t.Fatalf("line survived saturating pollution (lat %d)", lat)
	}
}

func TestHierarchyFlush(t *testing.T) {
	h := DefaultHierarchy()
	h.Access(0x9000)
	h.Flush()
	if lat, _ := h.Access(0x9000); lat != 200 {
		t.Fatalf("flush did not empty hierarchy (lat %d)", lat)
	}
}

// Property: a just-inserted line always hits, whatever else is resident.
func TestInsertThenLookupProperty(t *testing.T) {
	c := New(Config{Name: "p", Sets: 16, Ways: 4, HitLatency: 1})
	f := func(addrs []uint32, probe uint32) bool {
		for _, a := range addrs {
			c.Insert(vm.PhysAddr(a))
		}
		c.Insert(vm.PhysAddr(probe))
		return c.Lookup(vm.PhysAddr(probe))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: hierarchy access latency is always one of the configured
// level latencies or the memory latency.
func TestHierarchyLatencyDomainProperty(t *testing.T) {
	h := DefaultHierarchy()
	valid := map[int]bool{4: true, 12: true, 50: true, 200: true}
	f := func(addr uint32) bool {
		lat, _ := h.Access(vm.PhysAddr(addr))
		return valid[lat]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
