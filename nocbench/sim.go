package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"nocstar"
	"nocstar/client"
	"nocstar/internal/experiments"
	"nocstar/internal/ptw"
	"nocstar/internal/runner"
	"nocstar/internal/system"
)

// The two simulator workloads run a fixed list of configs, repeatedly,
// through a fresh internal/runner pool per repeat (so no repeat is
// served from an earlier repeat's memo). One repeat is a unit: every
// config executed once by `par` closed-loop submitters; then the
// results enter the store of an idle, single in-process serve node and
// every config is re-sent to it, the path a repeated request takes to
// a cached result.

// simSpec is one simulator workload.
type simSpec struct {
	configs []nocstar.Config
	// par is how many configs execute at once.
	par int
	// hitRounds is how often each config is re-sent per unit: enough
	// that each unit's hits alone give a p95 with ten samples beyond it.
	hitRounds int
	// reference runs the registered experiment the configs mirror and
	// returns a check of the benchmark's own results against it.
	reference func() func(results []nocstar.Result) error
	// headline, when set, is the paper-comparable speed-up the
	// workload's results yield.
	headline func(results []nocstar.Result) float64
}

// table3Instr is BenchmarkTable3's per-thread budget.
const table3Instr = 25_000

// table3Workloads are BenchmarkTable3's two workloads.
var table3Workloads = []string{"canneal", "gups"}

// table3Scenarios mirrors the row set of experiments.Table3, in order.
// The canonical check fails if the two ever diverge.
var table3Scenarios = []struct {
	prefetch, smt int
	ptw           ptw.Config
}{
	{0, 1, ptw.Config{Mode: ptw.Variable}},
	{1, 1, ptw.Config{Mode: ptw.Variable}},
	{2, 1, ptw.Config{Mode: ptw.Variable}},
	{3, 1, ptw.Config{Mode: ptw.Variable}},
	{0, 2, ptw.Config{Mode: ptw.Variable}},
	{0, 4, ptw.Config{Mode: ptw.Variable}},
	{0, 1, ptw.Config{Mode: ptw.Fixed, FixedLatency: 10}},
	{0, 1, ptw.Config{Mode: ptw.Fixed, FixedLatency: 20}},
	{0, 1, ptw.Config{Mode: ptw.Fixed, FixedLatency: 40}},
	{0, 1, ptw.Config{Mode: ptw.Fixed, FixedLatency: 80}},
}

// table3Orgs are the shared organizations each scenario compares
// against its private baseline, in experiments.Table3's row order.
var table3Orgs = []nocstar.Org{nocstar.MonolithicMesh, nocstar.DistributedMesh, nocstar.Nocstar}

// paperFixed80Nocstar is the paper's Table III NOCSTAR speed-up at a
// fixed 80-cycle walk (EXPERIMENTS.md).
const paperFixed80Nocstar = 1.26

// table3Spec builds the Table III sweep: 10 scenarios x (private
// baseline + 3 shared organizations) x 2 workloads = 80 runs, 32 cores,
// cold. Per scenario the configs are the baselines, then each
// organization's runs, workloads in order.
func table3Spec(seed int64, par int) (simSpec, error) {
	const cores = 32
	var specs []nocstar.WorkloadSpec
	for _, name := range table3Workloads {
		s, ok := nocstar.WorkloadByName(name)
		if !ok {
			return simSpec{}, fmt.Errorf("workload %q not in the suite", name)
		}
		specs = append(specs, s)
	}
	var cfgs []nocstar.Config
	for _, sc := range table3Scenarios {
		for _, org := range append([]nocstar.Org{nocstar.Private}, table3Orgs...) {
			for _, spec := range specs {
				cfg := nocstar.Config{
					Org:            org,
					Cores:          cores,
					Apps:           []nocstar.App{{Spec: spec, Threads: cores * sc.smt, HammerSlice: nocstar.HammerNone}},
					InstrPerThread: table3Instr / uint64(sc.smt),
					Seed:           seed,
					PrefetchDegree: sc.prefetch,
					SMT:            sc.smt,
					PTW:            sc.ptw,
				}
				cfgs = append(cfgs, cfg)
			}
		}
	}
	reference := func() func([]nocstar.Result) error {
		want := experiments.Table3(experiments.Options{
			Instr: table3Instr, Seed: seed, Workloads: table3Workloads, Parallelism: par,
		})
		return func(results []nocstar.Result) error {
			got := table3Averages(results)
			if len(want.Rows) != len(got) {
				return fmt.Errorf("table3: experiment has %d rows, benchmark %d", len(want.Rows), len(got))
			}
			for i, row := range want.Rows {
				if row.Avg != got[i] {
					return fmt.Errorf("table3: row %d (%s %s) avg %v, benchmark configs give %v",
						i, row.Prefetch, row.Org, row.Avg, got[i])
				}
			}
			return nil
		}
	}
	headline := func(results []nocstar.Result) float64 {
		avgs := table3Averages(results)
		return avgs[len(avgs)-1] // last scenario (Fixed-80), last org (NOCSTAR)
	}
	return simSpec{configs: cfgs, par: par, hitRounds: 4, reference: reference, headline: headline}, nil
}

// table3Averages computes each (scenario, organization) row's mean
// speed-up over the scenario's private baseline, in the row order of
// experiments.Table3.
func table3Averages(results []nocstar.Result) []float64 {
	nw := len(table3Workloads)
	perScenario := nw * (1 + len(table3Orgs))
	var out []float64
	for s := 0; s+perScenario <= len(results); s += perScenario {
		base := results[s : s+nw]
		for o := range table3Orgs {
			sum := 0.0
			for w := 0; w < nw; w++ {
				sum += results[s+nw*(o+1)+w].SpeedupOver(base[w])
			}
			out = append(out, sum/float64(nw))
		}
	}
	return out
}

// scale1024Instr is the smoke1024 experiment's per-thread budget.
const scale1024Instr = 10_000

// scale1024Spec is the smoke1024 machine: one cold gups run over 1024
// DistributedMesh tiles on the default engine.
func scale1024Spec(seed int64) (simSpec, error) {
	const cores = 1024
	spec, ok := nocstar.WorkloadByName("gups")
	if !ok {
		return simSpec{}, fmt.Errorf("workload gups not in the suite")
	}
	cfg := nocstar.Config{
		Org:            nocstar.DistributedMesh,
		Cores:          cores,
		Apps:           []nocstar.App{{Spec: spec, Threads: cores, HammerSlice: nocstar.HammerNone}},
		InstrPerThread: scale1024Instr,
		Seed:           seed,
	}
	reference := func() func([]nocstar.Result) error {
		want := experiments.Smoke1024(experiments.Options{Instr: scale1024Instr, Seed: seed, Parallelism: 1})
		return func(results []nocstar.Result) error {
			r := results[0]
			if want.Cycles != r.Cycles || want.Walks != r.Walks || want.IPC != r.IPC {
				return fmt.Errorf("scale1024: experiment gives %d cycles, %d walks, IPC %v; benchmark config %d, %d, %v",
					want.Cycles, want.Walks, want.IPC, r.Cycles, r.Walks, r.IPC)
			}
			return nil
		}
	}
	return simSpec{configs: []nocstar.Config{cfg}, par: 1, hitRounds: 256, reference: reference}, nil
}

// configuredRefs is the number of memory references a config asks
// for: each thread runs InstrPerThread instructions at its workload's
// references per instruction.
func configuredRefs(cfg nocstar.Config) uint64 {
	var total uint64
	for _, a := range cfg.Apps {
		refs := uint64(float64(cfg.InstrPerThread) * a.Spec.MemRefPerInstr)
		if refs == 0 {
			refs = 1
		}
		total += uint64(a.Threads) * refs
	}
	return total
}

// unit is one measured repeat of a simulator workload.
type unit struct {
	wall      time.Duration
	exec, hit []float64 // per-config latencies, ms
	results   []nocstar.Result
	digests   [][32]byte         // SHA-256 of each result's JSON encoding
	alloc     uint64             // host bytes allocated by the executions
	cpu       time.Duration      // process CPU time over the executions
	gcCycles  uint64             // GC cycles over the executions
	layers    map[string]float64 // traced units: CPU s per layer over the executions
	progress  runner.Progress
	failed    int
}

// runUnit executes every config once through a fresh runner with par
// closed-loop submitters, puts the results in fd's store, and re-sends
// each config to fd hitRounds times. With a tracer the executions run
// under the CPU profiler.
func runUnit(ctx context.Context, spec simSpec, fd *frontDoor, tr *tracer) (unit, error) {
	n := len(spec.configs)
	r := runner.New(spec.par)
	u := unit{exec: make([]float64, n), results: make([]nocstar.Result, n), digests: make([][32]byte, n)}
	var failed atomic.Int64
	var stopProfile func() (map[string]float64, error)
	if tr != nil {
		var err error
		if stopProfile, err = cpuProfile(); err != nil {
			return u, err
		}
	}
	alloc0, cpu0, gc0 := heapAllocs(), cpuTime(), gcCount()
	u.wall, _ = closedLoop(n, spec.par, func(i int) error {
		t0 := time.Now()
		end := tr.start("runner.Submit")
		res, err := r.SubmitContext(ctx, spec.configs[i]).Result()
		end()
		u.exec[i] = ms(time.Since(t0))
		u.results[i] = res
		if err != nil {
			failed.Add(1)
		}
		return nil
	})
	u.alloc, u.cpu, u.gcCycles = heapAllocs()-alloc0, cpuTime()-cpu0, gcCount()-gc0
	if stopProfile != nil {
		var err error
		if u.layers, err = stopProfile(); err != nil {
			return u, err
		}
	}

	encoded := make([][]byte, n)
	for i, cfg := range spec.configs {
		b, err := json.Marshal(u.results[i])
		if err != nil {
			return u, err
		}
		hash, err := cfg.CanonicalHash()
		if err != nil {
			return u, err
		}
		if err := fd.store.Put(hash, b); err != nil {
			return u, err
		}
		encoded[i], u.digests[i] = b, sha256.Sum256(b)
	}
	// The hits start from a collected heap, so that whether a collection
	// of the executions' garbage overlaps them does not change from run
	// to run.
	runtime.GC()
	for round := 0; round < spec.hitRounds; round++ {
		for i, cfg := range spec.configs {
			t0 := time.Now()
			end := tr.start("client.submit")
			st, err := fd.c.SubmitRun(ctx, cfg)
			end()
			u.hit = append(u.hit, ms(time.Since(t0)))
			if err != nil || st.State != client.StateDone || !bytes.Equal(st.Result, encoded[i]) {
				failed.Add(1)
			}
		}
	}
	u.progress = r.Progress()
	u.failed = int(failed.Load())
	return u, nil
}

// measureUnits runs units until budget has passed, and at least
// minUnits of them.
func measureUnits(ctx context.Context, spec simSpec, fd *frontDoor, budget time.Duration, minUnits int, tr *tracer) ([]unit, error) {
	var units []unit
	begin := time.Now()
	for len(units) < minUnits || time.Since(begin) < budget {
		u, err := runUnit(ctx, spec, fd, tr)
		if err != nil {
			return nil, err
		}
		units = append(units, u)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return units, nil
}

// simSetup times system.New over every config of the workload, in at
// least minPasses passes and for at least budget, and returns the
// median pass, not counting the collections between passes. With a
// tracer it also measures the live heap one constructed machine holds,
// averaged over configs.
func simSetup(spec simSpec, minPasses int, budget time.Duration, tr *tracer) (setup time.Duration, liveMB float64, err error) {
	var times []float64
	start := time.Now()
	for len(times) < minPasses || time.Since(start) < budget {
		// Each pass starts from a collected heap, so that no pass pays
		// for the garbage of the one before.
		runtime.GC()
		begin := time.Now()
		for _, cfg := range spec.configs {
			end := tr.start("system.New")
			_, err := system.New(cfg)
			end()
			if err != nil {
				return 0, 0, fmt.Errorf("system.New: %w", err)
			}
		}
		times = append(times, float64(time.Since(begin)))
	}
	if tr != nil {
		if liveMB, err = liveHeapMB(spec.configs); err != nil {
			return 0, 0, err
		}
	}
	return time.Duration(median(times)), liveMB, nil
}

// liveHeapMB is the mean live heap, in MB, that one constructed
// machine holds, over cfgs.
func liveHeapMB(cfgs []nocstar.Config) (float64, error) {
	var sum float64
	for _, cfg := range cfgs {
		runtime.GC()
		before := heapLive()
		s, err := system.New(cfg)
		if err != nil {
			return 0, fmt.Errorf("system.New: %w", err)
		}
		runtime.GC()
		sum += float64(heapLive()) - float64(before)
		runtime.KeepAlive(s)
	}
	return sum / float64(len(cfgs)) / 1e6, nil
}

// checkSim verifies a simulator workload's outputs: every repeat's
// results are byte-identical to the first repeat's, every run
// simulated exactly the references its config asks for, and the first
// repeat reproduces the registered experiment (canonical is the error
// that comparison returned). It returns the number of
// results found wrong and the reasons.
func checkSim(spec simSpec, units []unit, canonical error) (bad int, reasons []string) {
	if canonical != nil {
		bad++
		reasons = append(reasons, canonical.Error())
	}
	first := make([][32]byte, len(spec.configs))
	for ui, u := range units {
		for i, r := range u.results {
			if want := configuredRefs(spec.configs[i]); r.MemRefs != want {
				bad++
				reasons = append(reasons, fmt.Sprintf("config %d simulated %d refs, configured %d", i, r.MemRefs, want))
				continue
			}
			d := u.digests[i]
			if ui == 0 {
				first[i] = d
			} else if d != first[i] {
				bad++
				reasons = append(reasons, fmt.Sprintf("config %d: repeat %d result differs from repeat 0", i, ui))
			}
		}
	}
	return bad, reasons
}
