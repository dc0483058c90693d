package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"nocstar"
	"nocstar/client"
	"nocstar/internal/server"
	"nocstar/internal/store"
)

// The serve workload drives a three-node loopback cluster, each node
// with its own persistent store directory, through the typed client.
// A warm-up sweep fills the stores, and a calibration measures what the
// cluster sustains on this host: a timed sweep gives its exec capacity
// (configs/s) and a closed loop of repeated configs its hit capacity
// (hits/s). Phase 1 is then an open loop in rounds: a block of exec
// requests (configs never seen before) at a fixed share of the exec
// capacity, sent to rotating nodes, then a block of hit requests
// (configs completed earlier) at Poisson arrivals averaging a fixed
// share of the hit capacity. Phase 2 is a closed loop of sweep batches
// of new configs.
//
// The rates are not a claim about real traffic. They are set by a rule
// so that the queueing regime is the same on any host: each class runs
// at a fixed utilisation of its own measured capacity, and the request
// counts are what a per-class p95 needs. A change that makes the
// cluster faster raises its capacity, and so its arrival rates, and is
// measured at the same utilisation.
//
// Execs and hits alternate rather than overlap: each exec sets off a
// simulation, replication and result copies that keep both processors
// busy about a tenth of the time, and hits landing there put the p95
// on the knee of the hit distribution, where it swung 2x from run to
// run. Alternating in rounds still spreads both classes over the whole
// phase, so a burst of outside load moves one round, not the run.

const (
	clusterSize = 3
	// heartbeat paces membership gossip. A boot lasts until the first
	// heartbeats land, so a fast cadence keeps it short enough to time
	// several times per run.
	heartbeat = 100 * time.Millisecond
	// rounds is how many exec blocks and hit blocks phase 1 alternates.
	rounds = 5
	// execLoad is the exec arrival rate as a share of the measured exec
	// capacity, and execShare the share of the run's seconds the exec
	// blocks last when that asks for more than minClassSamples.
	execLoad  = 0.1
	execShare = 0.5
	// minClassSamples is the fewest requests per class a run sends,
	// enough for a p95 with ten samples above it.
	minClassSamples = 200
	// hitLoad is the mean hit arrival rate as a share of the measured
	// hit capacity. hitRequests is how many hits phase 1 sends in all:
	// each round's hits alone give a p95 with ten samples above it.
	hitLoad     = 0.02
	hitRequests = rounds * minClassSamples
	// settle separates the last exec of a block from the first hit, so
	// that its replication has landed.
	settle = 250 * time.Millisecond
	// sweepBatches and sweepBatch size phase 2. A batch is large enough
	// that the proxies' 50 ms status polls are a small part of its time,
	// and stays under the cluster's default sweep admission budget
	// (3 nodes x 64 queue slots).
	sweepBatches = 5
	sweepBatch   = 144
	// warmConfigs are swept, untimed, before anything is measured, and
	// calConfigs, one sweep batch, then swept to measure the exec
	// capacity; both are hit targets. The hit capacity is the median
	// over calBatches batches of calHits closed-loop hits, so that a
	// stall in one batch does not set the run's hit rate.
	warmConfigs = 16
	calConfigs  = sweepBatch
	calBatches  = 9
	calHits     = 200
)

const (
	classExec = iota
	classHit
)

// serveConfig is the tiny job every serve request carries: NOCSTAR,
// 4 cores, gups, 10k instructions per thread, its own seed.
func serveConfig(seed int64) nocstar.Config {
	spec, _ := nocstar.WorkloadByName("gups")
	return nocstar.Config{
		Org:            nocstar.Nocstar,
		Cores:          4,
		Apps:           []nocstar.App{{Spec: spec, Threads: 4, HammerSlice: nocstar.HammerNone}},
		InstrPerThread: 10_000,
		Seed:           seed,
	}
}

// warmPlan is the warm-up and calibration input of a serve run, derived
// from the seed alone.
type warmPlan struct {
	warm, cal []nocstar.Config
	next      int64 // the seed of the last config made
}

func planWarm(seed int64) warmPlan {
	w := warmPlan{next: seed * 1_000_000}
	for i := 0; i < warmConfigs+calConfigs; i++ {
		w.next++
		if i < warmConfigs {
			w.warm = append(w.warm, serveConfig(w.next))
		} else {
			w.cal = append(w.cal, serveConfig(w.next))
		}
	}
	return w
}

// pool is every config the warm-up executes, in order: the first hit
// targets.
func (w warmPlan) pool() []nocstar.Config {
	return append(append([]nocstar.Config(nil), w.warm...), w.cal...)
}

// rates are the measured capacities and the arrival rates set from
// them, per second.
type rates struct {
	execCap, hitCap   float64
	execRate, hitRate float64
}

func ratesFrom(execCap, hitCap float64) rates {
	return rates{execCap: execCap, hitCap: hitCap, execRate: execLoad * execCap, hitRate: hitLoad * hitCap}
}

// servePlan is the generated input of one serve run's measured phases.
type servePlan struct {
	pool  []nocstar.Config // warm-up configs, then exec
	exec  []nocstar.Config
	sweep [][]nocstar.Config
	reqs  []request // phase 1, in due order
	// hitTarget[j] is the index, into pool, of the config hit request j
	// re-sends.
	hitTarget []int
}

// planServe derives every config and the phase-1 schedule from the
// seed and the rates: nExec exec requests and nHit hits, in rounds.
func planServe(seed int64, w warmPlan, r rates, nExec, nHit int) servePlan {
	next := w.next
	newCfg := func() nocstar.Config { next++; return serveConfig(next) }
	nWarm := len(w.warm) + len(w.cal)
	p := servePlan{pool: w.pool()}
	rng := rand.New(rand.NewSource(seed))
	var due time.Duration
	for round := 0; round < rounds; round++ {
		for i := 0; i < nExec/rounds; i++ {
			p.reqs = append(p.reqs, request{Due: due, Class: classExec, Index: len(p.exec)})
			p.exec = append(p.exec, newCfg())
			due += time.Duration(float64(time.Second) / r.execRate)
		}
		due += settle
		for j := 0; j < nHit/rounds; j++ {
			p.reqs = append(p.reqs, request{Due: due, Class: classHit, Index: len(p.hitTarget)})
			p.hitTarget = append(p.hitTarget, rng.Intn(nWarm+len(p.exec)))
			due += time.Duration(rng.ExpFloat64() * float64(time.Second) / r.hitRate)
		}
		due += settle
	}
	p.pool = append(p.pool, p.exec...)
	for b := 0; b < sweepBatches; b++ {
		var batch []nocstar.Config
		for i := 0; i < sweepBatch; i++ {
			batch = append(batch, newCfg())
		}
		p.sweep = append(p.sweep, batch)
	}
	return p
}

// node is one running cluster member.
type node struct {
	srv  *server.Server
	http *http.Server
	base string
	c    *client.Client
	done chan struct{} // closed when Serve returns
}

type serveCluster struct{ nodes []*node }

// bootCluster starts three nodes over loopback listeners and returns
// once every node has heard from all three. With a tracer, each
// node's result store is the server's default tiering (an in-memory
// LRU over the store directory) wrapped in the tracer's decorator, and
// each handler is wrapped in its timer.
func bootCluster(ctx context.Context, dir string, tr *tracer) (*serveCluster, error) {
	c := &serveCluster{}
	lns := make([]net.Listener, 0, clusterSize)
	peers := make([]string, clusterSize)
	fail := func(err error) (*serveCluster, error) {
		for _, l := range lns[len(c.nodes):] {
			l.Close()
		}
		c.stop()
		return nil, err
	}
	for i := range peers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		lns = append(lns, ln)
		peers[i] = "http://" + ln.Addr().String()
	}
	for i, ln := range lns {
		opts := server.Options{
			Peers: peers, Node: peers[i], HeartbeatInterval: heartbeat,
			StoreDir: filepath.Join(dir, fmt.Sprintf("node%d", i)),
		}
		if tr != nil {
			d, err := store.OpenDir(opts.StoreDir, 0, 0)
			if err != nil {
				return fail(err)
			}
			opts.Store = tracedStore{inner: store.Tiered(store.NewMemory(defaultCacheEntries), d), t: tr}
		}
		srv, err := server.New(opts)
		if err != nil {
			return fail(err)
		}
		var h http.Handler = srv.Handler()
		if tr != nil {
			h = tr.handler(h)
		}
		n := &node{srv: srv, http: &http.Server{Handler: h}, base: peers[i], c: client.New(peers[i], client.WithHTTPClient(loadgenHTTP)), done: make(chan struct{})}
		c.nodes = append(c.nodes, n)
		go func() {
			defer close(n.done)
			n.http.Serve(ln)
		}()
	}
	for !c.converged(ctx) {
		select {
		case <-ctx.Done():
			return fail(fmt.Errorf("cluster never converged: %w", ctx.Err()))
		case <-time.After(time.Millisecond):
		}
	}
	return c, nil
}

// converged reports whether every node has heard a heartbeat from every
// member: each view lists three live members, each with the epoch it
// announced. A node seeded with its peers lists them as live before it
// has heard from them, with epoch 0.
func (c *serveCluster) converged(ctx context.Context) bool {
	for _, n := range c.nodes {
		info, err := n.c.Cluster(ctx, "")
		if err != nil {
			return false
		}
		heard := 0
		for _, m := range info.View.Live() {
			if m.Epoch != 0 {
				heard++
			}
		}
		if heard != clusterSize {
			return false
		}
	}
	return true
}

// defaultCacheEntries is server.Options.CacheEntries' default, the
// in-memory tier the traced store keeps in front of the directory.
const defaultCacheEntries = 128

// loadgenHTTP carries every request the benchmark makes. It has its own
// connection pool, as a client process would, rather than sharing
// http.DefaultTransport with the nodes' peer traffic.
var loadgenHTTP = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}

// stop drains every node's jobs, then closes its listener and
// connections, and waits until each has exited. The drain finishes all
// work, so the connections are closed outright rather than waited on.
func (c *serveCluster) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, n := range c.nodes {
		n.srv.Shutdown(ctx)
	}
	for _, n := range c.nodes {
		n.http.Close()
		<-n.done
	}
	loadgenHTTP.CloseIdleConnections()
}

// counters scrapes the serverCounters samples from every node's
// /metrics and adds them up across nodes.
func (c *serveCluster) counters(ctx context.Context) (map[string]float64, error) {
	total := map[string]float64{}
	for _, name := range serverCounters {
		for _, n := range c.nodes {
			v, err := n.c.Metric(ctx, name)
			if err != nil {
				return nil, err
			}
			total[name] += v
		}
	}
	return total, nil
}

// frontDoor is one idle, unclustered serve node whose result store the
// simulator workloads fill, so that repeated configs can be answered
// from it.
type frontDoor struct {
	c     *client.Client
	store store.Store
	srv   *server.Server
	http  *http.Server
	done  chan struct{}
}

// startFrontDoor starts the node on a loopback listener. With a tracer
// its store and handler are wrapped as the cluster's are.
func startFrontDoor(tr *tracer) (*frontDoor, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	fd := &frontDoor{store: store.NewMemory(defaultCacheEntries), done: make(chan struct{})}
	if tr != nil {
		fd.store = tracedStore{inner: fd.store, t: tr}
	}
	if fd.srv, err = server.New(server.Options{Store: fd.store}); err != nil {
		ln.Close()
		return nil, err
	}
	var h http.Handler = fd.srv.Handler()
	if tr != nil {
		h = tr.handler(h)
	}
	fd.http = &http.Server{Handler: h}
	fd.c = client.New("http://"+ln.Addr().String(), client.WithHTTPClient(loadgenHTTP))
	go func() {
		defer close(fd.done)
		fd.http.Serve(ln)
	}()
	return fd, nil
}

func (fd *frontDoor) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	fd.srv.Shutdown(ctx)
	fd.http.Close()
	<-fd.done
	loadgenHTTP.CloseIdleConnections()
}

// served is one result the cluster returned, kept for the check.
type served struct {
	cfg    nocstar.Config
	result []byte
}

// serveOut is what one serve pass measured.
type serveOut struct {
	rates        rates     // measured by the warm-up
	samples      []sample  // phase 1
	sweepWall    []float64 // per batch, s
	sweepRefs    []float64 // simulated refs per batch
	alloc        uint64
	attempted    int
	failed       int
	served       []served
	execOwner    []bool // per exec request: entry node owned the config
	serverCounts map[string]float64
}

// driver sends one pass's requests to a booted cluster and keeps every
// result it gets back for the check.
type driver struct {
	c  *serveCluster
	tr *tracer

	mu  sync.Mutex
	out serveOut
}

func (d *driver) keep(cfg nocstar.Config, b []byte) {
	d.mu.Lock()
	d.out.served = append(d.out.served, served{cfg, b})
	d.mu.Unlock()
}

// runOne submits one config to n and follows it to a result.
func (d *driver) runOne(ctx context.Context, n *node, cfg nocstar.Config) error {
	end := d.tr.start("client.submit")
	st, err := n.c.SubmitRun(ctx, cfg)
	end()
	if err != nil {
		return err
	}
	if !st.Terminal() {
		end := d.tr.start("client.wait")
		st, err = n.c.Wait(ctx, st.ID)
		end()
		if err != nil {
			return err
		}
	}
	if st.State != client.StateDone {
		return fmt.Errorf("run %s ended %s: %s", st.ID, st.State, st.Error)
	}
	d.keep(cfg, st.Result)
	return nil
}

// sweep sends batch to n as one Sweep and returns its wall time, the
// memory references its legs simulated, and how many legs completed.
func (d *driver) sweep(ctx context.Context, n *node, batch []nocstar.Config) (wall time.Duration, refs float64, done int, err error) {
	end := d.tr.start("client.sweep")
	t0 := time.Now()
	_, err = n.c.Sweep(ctx, batch, func(sr client.SweepResult) error {
		var res nocstar.Result
		if sr.State != client.StateDone || json.Unmarshal(sr.Result, &res) != nil {
			return nil
		}
		done++
		refs += float64(res.MemRefs)
		d.keep(batch[sr.Index], sr.Result)
		return nil
	})
	wall = time.Since(t0)
	end()
	return wall, refs, done, err
}

// warmUp sweeps the warm-up configs, untimed, then measures the
// cluster's capacities: a timed sweep of the calibration configs gives
// the exec capacity, and batches of repeated configs sent closed-loop
// by workers give the hit capacity. Any failure ends the run.
func (d *driver) warmUp(ctx context.Context, w warmPlan, workers int) (rates, error) {
	n := d.c.nodes[0]
	var calWall time.Duration // the last sweep's
	for _, batch := range [][]nocstar.Config{w.warm, w.cal} {
		wall, _, done, err := d.sweep(ctx, n, batch)
		if err == nil && done != len(batch) {
			err = fmt.Errorf("%d of %d legs done", done, len(batch))
		}
		if err != nil {
			return rates{}, fmt.Errorf("warm-up sweep: %w", err)
		}
		calWall = wall
	}
	pool := w.pool()
	var hitRates []float64
	for b := 0; b < calBatches; b++ {
		wall, err := closedLoop(calHits, workers, func(j int) error {
			if err := d.runOne(ctx, d.c.nodes[j%clusterSize], pool[j%len(pool)]); err != nil {
				return fmt.Errorf("calibration hit %d: %w", j, err)
			}
			return nil
		})
		if err != nil {
			return rates{}, err
		}
		hitRates = append(hitRates, calHits/wall.Seconds())
	}
	d.out.rates = ratesFrom(float64(len(w.cal))/calWall.Seconds(), median(hitRates))
	return d.out.rates, nil
}

// run drives the warmed-up cluster through both measured phases. With a
// tracer, what it records and the server counters it reads cover these
// phases only, not the warm-up.
func (d *driver) run(ctx context.Context, plan servePlan) (serveOut, error) {
	c, out := d.c, &d.out
	var before map[string]float64
	if d.tr != nil {
		d.tr.reset()
		var err error
		if before, err = c.counters(ctx); err != nil {
			return *out, err
		}
	}
	alloc0 := heapAllocs()
	send := func(ctx context.Context, r request) error {
		n := c.nodes[r.Index%clusterSize]
		if r.Class == classExec {
			return d.runOne(ctx, n, plan.exec[r.Index])
		}
		return d.runOne(ctx, n, plan.pool[plan.hitTarget[r.Index]])
	}
	out.samples = openLoop(ctx, time.Now(), plan.reqs, runtime.NumCPU(), send)
	out.attempted += len(out.samples)
	for _, s := range out.samples {
		if s.Err != nil {
			out.failed++
			fmt.Fprintf(os.Stderr, "nocbench: request %d (class %d) failed: %v\n", s.Req.Index, s.Req.Class, s.Err)
		}
	}

	for b, batch := range plan.sweep {
		wall, refs, done, err := d.sweep(ctx, c.nodes[b%clusterSize], batch)
		out.attempted += len(batch)
		out.failed += len(batch) - done
		if err != nil || done != len(batch) {
			fmt.Fprintf(os.Stderr, "nocbench: sweep batch %d: %d of %d legs done: %v\n", b, done, len(batch), err)
		}
		if err == nil && done == len(batch) {
			out.sweepWall = append(out.sweepWall, wall.Seconds())
			out.sweepRefs = append(out.sweepRefs, refs)
		}
	}
	out.alloc = heapAllocs() - alloc0

	if d.tr != nil {
		// Which exec requests landed on their config's owner: asked after
		// the window, from the node's own ownership preview.
		for i, cfg := range plan.exec {
			hash, err := cfg.CanonicalHash()
			if err != nil {
				return *out, err
			}
			n := c.nodes[i%clusterSize]
			info, err := n.c.Cluster(ctx, hash)
			if err != nil {
				return *out, err
			}
			out.execOwner = append(out.execOwner, info.Ownership != nil && info.Ownership.Owner.Addr == n.base)
		}
		after, err := c.counters(ctx)
		if err != nil {
			return *out, err
		}
		for name := range after {
			after[name] -= before[name]
		}
		out.serverCounts = after
	}
	return *out, nil
}

// serverCounters are the /metrics samples the traced run reports.
var serverCounters = []string{
	"nocstar_server_proxy_handoff",
	"nocstar_server_proxy_fallback",
	"nocstar_server_sweep_spilled",
	"nocstar_server_sweep_admission_rejected",
	"nocstar_server_replica_pushed",
	"nocstar_server_replica_errors",
	"nocstar_pool_completed",
	"nocstar_pool_deduped",
}

// checkServed compares every result the cluster returned with a
// direct in-process run of its config, byte for byte. It returns how
// many served results were wrong and the direct results by config seed.
func checkServed(ctx context.Context, all []served, workers int) (bad int, direct map[int64]nocstar.Result, err error) {
	want := map[int64][]byte{}
	direct = map[int64]nocstar.Result{}
	var cfgs []nocstar.Config
	for _, s := range all {
		if _, ok := want[s.cfg.Seed]; !ok {
			want[s.cfg.Seed] = nil
			cfgs = append(cfgs, s.cfg)
		}
	}
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	work := make(chan nocstar.Config)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for cfg := range work {
				res, err := nocstar.RunContext(ctx, cfg)
				var b []byte
				if err == nil {
					b, err = json.Marshal(res)
				}
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				want[cfg.Seed] = b
				direct[cfg.Seed] = res
				mu.Unlock()
			}
		}()
	}
	for _, cfg := range cfgs {
		work <- cfg
	}
	close(work)
	wg.Wait()
	if firstErr != nil {
		return 0, nil, fmt.Errorf("direct run: %w", firstErr)
	}
	for _, s := range all {
		if !bytes.Equal(s.result, want[s.cfg.Seed]) {
			bad++
		}
	}
	return bad, direct, nil
}

// runDir makes a fresh directory for one cluster's stores.
func runDir(root string, name string) (string, error) {
	dir := filepath.Join(root, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
