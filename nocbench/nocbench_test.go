package main

import (
	"bytes"
	"context"
	"go/build"
	"io/fs"
	"math"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// TestEveryRepoPackageHasOneLayer walks the repository for library
// packages and checks each maps to exactly one reported layer.
func TestEveryRepoPackageHasOneLayer(t *testing.T) {
	layers := map[string]bool{}
	for _, l := range cpuLayers {
		layers[l] = true
	}
	for pkg, l := range repoLayers {
		if !layers[l] || l == "other" {
			t.Errorf("package %s maps to %q, not a reported layer", pkg, l)
		}
	}
	seen := 0
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != ".." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "nocbench") {
			return filepath.SkipDir
		}
		p, err := build.ImportDir(path, 0)
		if err != nil || p.Name == "main" {
			return nil // no Go files, or a command never loaded in-process
		}
		rel, _ := filepath.Rel("..", path)
		importPath := "nocstar"
		if rel != "." {
			importPath += "/" + filepath.ToSlash(rel)
		}
		seen++
		l, ok := repoLayers[importPath]
		if !ok {
			t.Errorf("package %s has no layer in repoLayers", importPath)
			return nil
		}
		for _, fn := range []string{importPath + ".F", importPath + ".(*T).M", importPath + ".G[...].func1"} {
			if got := layerOf([]string{"runtime.mallocgc", fn, "net/http.(*conn).serve"}); got != l {
				t.Errorf("frame %s charged to %q, want %q", fn, got, l)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen < 10 {
		t.Fatalf("found only %d library packages; is the test running inside the repository?", seen)
	}
}

func TestLayerOfRules(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.gcAssistAlloc", "runtime.mallocgc", "nocstar/internal/tlb.New"}, "gc"},
		{[]string{"encoding/json.(*encodeState).marshal", "encoding/json.Marshal", "nocstar/internal/server.(*Server).execJob"}, "json"},
		{[]string{"syscall.Syscall", "internal/poll.(*FD).Write", "net.(*conn).Write", "net/http.(*conn).serve"}, "http"},
		{[]string{"syscall.Syscall", "os.(*File).Write", "nocstar/internal/store.(*Dir).Put"}, "store"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "runtime"},
		{[]string{"__tsan_read", "__tsan_go_start"}, "runtime"},
		{[]string{"sort.Slice", "main.percentile"}, "bench"},
		{[]string{"sort.Slice"}, "other"},
		{nil, "other"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// TestOtherShareSmall profiles a short pass of each workload and
// checks that almost no CPU falls outside the named layers.
func TestOtherShareSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload briefly")
	}
	ctx := context.Background()
	profile := func(t *testing.T, fn func()) map[string]float64 {
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			t.Fatal(err)
		}
		fn()
		pprof.StopCPUProfile()
		prof, err := foldProfile(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return prof
	}
	check := func(t *testing.T, prof map[string]float64) {
		total := 0.0
		for _, v := range prof {
			total += v
		}
		if total < 0.2 {
			t.Fatalf("only %.2fs of CPU sampled: %v", total, prof)
		}
		if share := prof["other"] / total; share > 0.05 {
			t.Errorf("other is %.1f%% of %.2fs CPU: %v", 100*share, total, prof)
		}
	}
	sim := func(t *testing.T, spec simSpec) {
		fd, err := startFrontDoor(nil)
		if err != nil {
			t.Fatal(err)
		}
		defer fd.stop()
		var u unit
		prof := profile(t, func() { u, err = runUnit(ctx, spec, fd, nil) })
		if err != nil || u.failed != 0 {
			t.Fatalf("unit: %v, %d failed", err, u.failed)
		}
		check(t, prof)
	}
	t.Run("table3", func(t *testing.T) {
		spec, err := table3Spec(1, 2)
		if err != nil {
			t.Fatal(err)
		}
		spec.configs = spec.configs[:8] // the first scenario
		sim(t, spec)
	})
	t.Run("scale1024", func(t *testing.T) {
		spec, err := scale1024Spec(1)
		if err != nil {
			t.Fatal(err)
		}
		sim(t, spec)
	})
	t.Run("serve", func(t *testing.T) {
		c, err := bootCluster(ctx, t.TempDir(), newTracer())
		if err != nil {
			t.Fatal(err)
		}
		defer c.stop()
		w := planWarm(3)
		d := &driver{c: c}
		var out serveOut
		prof := profile(t, func() {
			var r rates
			if r, err = d.warmUp(ctx, w, 2); err != nil {
				return
			}
			out, err = d.run(ctx, planServe(3, w, r, 24, 24))
		})
		if err != nil {
			t.Fatal(err)
		}
		if out.failed != 0 {
			t.Fatalf("%d of %d requests failed", out.failed, out.attempted)
		}
		check(t, prof)
	})
}

func TestPercentile(t *testing.T) {
	// Brute-force R-7: position (n-1)p between the two closest ranks.
	ref := func(n int, p float64) float64 { // over the values 1..n
		return 1 + float64(n-1)*p
	}
	// The sample counts the workloads produce: scale1024 units, table3
	// configs, hits, and the serve classes.
	for _, n := range []int{1, 2, 12, 64, 80, 200, 240, 480} {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = float64(n - i) // reversed: the helper must sort
		}
		for _, p := range []float64{0, 0.25, 0.5, 0.75, 0.95, 1} {
			if got, want := percentile(vs, p), ref(n, p); math.Abs(got-want) > 1e-9 {
				t.Errorf("n=%d p=%v: got %v, want %v", n, p, got, want)
			}
		}
		if vs[0] != float64(n) {
			t.Fatalf("percentile reordered its input")
		}
	}
	if got := percentile([]float64{3, 1, 2}, 0.5); got != 2 {
		t.Errorf("median of 1,2,3 = %v", got)
	}
	if got := percentile([]float64{10, 20}, 0.95); math.Abs(got-19.5) > 1e-9 {
		t.Errorf("p95 of 10,20 = %v, want 19.5", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %v", got)
	}

	// Five windows of 200, one of them a burst ten times slower: the
	// windowed p95 is the calm windows' p95, the pooled one is not.
	var vs []float64
	for w := 0; w < 5; w++ {
		for i := 1; i <= 200; i++ {
			v := float64(i)
			if w == 2 {
				v *= 10
			}
			vs = append(vs, v)
		}
	}
	if got, want := windowed(vs, 200, 0.95), 1+199*0.95; math.Abs(got-want) > 1e-9 {
		t.Errorf("windowed p95 = %v, want %v", got, want)
	}
	if pooled := percentile(vs, 0.95); pooled < 1000 {
		t.Errorf("pooled p95 = %v, want the burst to show", pooled)
	}
	if got, want := windowed(vs[:300], 200, 0.5), percentile(vs[:300], 0.5); got != want {
		t.Errorf("one full window: windowed %v, pooled %v", got, want)
	}
}

// TestOpenLoopTimesFromDue stalls a single worker and checks that the
// requests queued behind the stall are charged from their due time and
// reported late.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const n, gap, work = 8, 2 * time.Millisecond, 10 * time.Millisecond
	var reqs []request
	for i := 0; i < n; i++ {
		reqs = append(reqs, request{Due: time.Duration(i) * gap, Index: i})
	}
	out := openLoop(context.Background(), time.Now(), reqs, 1, func(context.Context, request) error {
		time.Sleep(work)
		return nil
	})
	for i, s := range out {
		if s.Req.Index != i || s.Err != nil {
			t.Fatalf("sample %d: %+v", i, s)
		}
		if s.Latency < s.Late+work {
			t.Errorf("request %d: latency %v is less than lateness %v plus work %v", i, s.Latency, s.Late, work)
		}
		// Request i cannot start before i*work, though it was due at i*gap.
		if min := time.Duration(i) * (work - gap); s.Late < min {
			t.Errorf("request %d: late %v, want at least %v", i, s.Late, min)
		}
	}
	// An idle generator is on time.
	out = openLoop(context.Background(), time.Now(), reqs, 2, func(context.Context, request) error { return nil })
	for i, s := range out {
		if s.Late > gap {
			t.Errorf("idle request %d late by %v", i, s.Late)
		}
	}
	// A canceled context reports unsent requests as failed.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out = openLoop(ctx, time.Now(), reqs, 1, func(context.Context, request) error { return nil })
	for i, s := range out {
		if s.Err == nil {
			t.Errorf("request %d sent after cancel", i)
		}
	}
}
