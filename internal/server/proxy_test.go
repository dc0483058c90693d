package server

import (
	"bytes"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"nocstar/client"
)

// longInstr simulates for over 300 ms per run (far longer under -race):
// long enough that a proxy polling the owner's status would show up in
// the owner's request counts.
const longInstr = 600000

// routeCounter counts the requests a handler receives per route, with
// run IDs folded into {id}.
type routeCounter struct {
	h  http.Handler
	mu sync.Mutex
	n  map[string]int
}

func newRouteCounter(h http.Handler) *routeCounter {
	return &routeCounter{h: h, n: map[string]int{}}
}

func (c *routeCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route := r.URL.Path
	if rest, ok := strings.CutPrefix(route, "/v1/runs/"); ok && rest != "" {
		route = "/v1/runs/{id}"
		if strings.HasSuffix(rest, "/events") {
			route += "/events"
		}
	}
	c.mu.Lock()
	c.n[r.Method+" "+route]++
	c.mu.Unlock()
	c.h.ServeHTTP(w, r)
}

func (c *routeCounter) count(route string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n[route]
}

// countedCluster boots n nodes, each behind its own routeCounter.
func countedCluster(t *testing.T, n int) ([]clusterNode, []*routeCounter) {
	t.Helper()
	counters := make([]*routeCounter, n)
	nodes := bootClusterWrapped(t, n, func(i int, self string, peers []string) Options {
		return hbOpts(Options{Workers: 2, Node: self, Peers: peers})
	}, func(i int, h http.Handler) http.Handler {
		counters[i] = newRouteCounter(h)
		return counters[i]
	})
	return nodes, counters
}

// waitFollowing blocks until owner is executing a run and a proxy has
// opened its event stream.
func waitFollowing(t *testing.T, owner clusterNode, rc *routeCounter) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for owner.srv.met.executed.Value() == 0 || rc.count("GET /v1/runs/{id}/events") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("proxy never started following the owner's stream")
		}
		time.Sleep(time.Millisecond)
	}
}

// waitDone waits for a run through c and checks it finished done with
// the direct-run bytes.
func waitDone(t *testing.T, c *client.Client, id string, want []byte) {
	t.Helper()
	final, err := c.Wait(ctxT(t), id)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != client.StateDone {
		t.Fatalf("proxied run ended %s: %s", final.State, final.Error)
	}
	if !bytes.Equal(final.Result, want) {
		t.Fatalf("proxied result differs from direct run (%d vs %d bytes)", len(final.Result), len(want))
	}
}

// TestProxyFollowsOwnerStream pins the push-based wait: a long proxied
// run costs the owner exactly one submission, one event stream and one
// status fetch, and its result is byte-identical to a direct run.
func TestProxyFollowsOwnerStream(t *testing.T) {
	nodes, counters := countedCluster(t, 2)
	a, b := nodes[0], nodes[1]
	ctx := ctxT(t)

	body := configOwnedBy(t, a.srv, b.srv.nodeID, 300, longInstr)
	want := directBytes(t, body)
	st, err := a.c.SubmitRunJSON(ctx, []byte(body))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, a.c, st.ID, want)

	for route, n := range map[string]int{
		"POST /v1/runs":            1,
		"GET /v1/runs/{id}/events": 1,
		"GET /v1/runs/{id}":        1,
		"DELETE /v1/runs/{id}":     0,
	} {
		if got := counters[1].count(route); got != n {
			t.Errorf("owner saw %d %s, want %d", got, route, n)
		}
	}
	if got := b.srv.met.executed.Value(); got != 1 {
		t.Fatalf("owner executed %d runs, want 1", got)
	}
	if got := a.srv.met.streamLost.Value(); got != 0 {
		t.Fatalf("healthy follow counted %d lost streams", got)
	}
}

// TestProxyCancelRelayed: canceling a proxied run tears down the
// stream and relays the DELETE to the owner, which stops simulating.
// A cancellation is not a lost stream.
func TestProxyCancelRelayed(t *testing.T) {
	nodes, counters := countedCluster(t, 2)
	a, b := nodes[0], nodes[1]
	ctx := ctxT(t)

	var body string
	for seed := int64(400); seed < 900; seed++ {
		if owner, _ := a.srv.clu.Owner(hashOf(t, endlessConfig(seed))); owner.ID == b.srv.nodeID {
			body = endlessConfig(seed)
			break
		}
	}
	if body == "" {
		t.Fatal("no endless config owned by the peer")
	}
	st, err := a.c.SubmitRunJSON(ctx, []byte(body))
	if err != nil {
		t.Fatal(err)
	}
	waitFollowing(t, b, counters[1])
	mustCancel(t, a.c, st.ID)

	deadline := time.Now().Add(30 * time.Second)
	for counters[1].count("DELETE /v1/runs/{id}") == 0 || b.srv.met.canceledRun.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("owner saw %d DELETEs and %d cancellations, want 1 and 1",
				counters[1].count("DELETE /v1/runs/{id}"), b.srv.met.canceledRun.Value())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := a.srv.met.streamLost.Value(); got != 0 {
		t.Fatalf("cancellation counted %d lost streams", got)
	}
	if got := a.srv.met.proxyHandoff.Value() + a.srv.met.proxyFallbck.Value(); got != 0 {
		t.Fatalf("cancellation handed off %d times", got)
	}
}

// TestKillOwnerMidStream: the owner is hard-killed while a proxy
// follows its stream. The run still finishes byte-identically through
// the handoff ladder, and the lost stream is counted.
func TestKillOwnerMidStream(t *testing.T) {
	nodes, counters := countedCluster(t, 3)
	a, b := nodes[0], nodes[1]
	ctx := ctxT(t)

	body := configOwnedBy(t, a.srv, b.srv.nodeID, 500, longInstr)
	want := directBytes(t, body)
	st, err := a.c.SubmitRunJSON(ctx, []byte(body))
	if err != nil {
		t.Fatal(err)
	}
	waitFollowing(t, b, counters[1])
	killNode(t, b)
	waitDone(t, a.c, st.ID, want)

	if got := a.srv.met.proxyHandoff.Value() + a.srv.met.proxyFallbck.Value(); got == 0 {
		t.Fatal("owner died mid-stream but no handoff or fallback was counted")
	}
	if got, err := a.c.Metric(ctx, "nocstar_server_proxy_stream_lost"); err != nil || got != 1 {
		t.Fatalf("exported stream_lost %v (%v), want 1", got, err)
	}
}

// freezer makes a node go silent without closing a connection: once
// frozen, new requests and writes to in-flight responses block until
// thaw.
type freezer struct {
	h      http.Handler
	mu     sync.Mutex
	frozen bool
	thawed chan struct{}
}

func newFreezer(h http.Handler) *freezer {
	return &freezer{h: h, thawed: make(chan struct{})}
}

func (f *freezer) freeze() {
	f.mu.Lock()
	f.frozen = true
	f.mu.Unlock()
}

func (f *freezer) thaw() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.frozen {
		f.frozen = false
		close(f.thawed)
	}
}

func (f *freezer) wait() {
	f.mu.Lock()
	frozen := f.frozen
	f.mu.Unlock()
	if frozen {
		<-f.thawed
	}
}

func (f *freezer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.wait()
	f.h.ServeHTTP(frozenWriter{w, f}, r)
}

// frozenWriter stalls every write and flush while its freezer is frozen.
type frozenWriter struct {
	http.ResponseWriter
	f *freezer
}

func (w frozenWriter) Write(b []byte) (int, error) {
	w.f.wait()
	return w.ResponseWriter.Write(b)
}

func (w frozenWriter) Flush() {
	w.f.wait()
	w.ResponseWriter.(http.Flusher).Flush()
}

// TestProxyHandsOffFrozenOwner: an owner that stops answering without
// closing the proxy's stream (its handler blocks, its heartbeats stop)
// must not hold the proxy job. The proxy abandons the follow once the
// membership view writes the owner off, hands off within DeadAfter
// plus slack, and the run still finishes byte-identically.
func TestProxyHandsOffFrozenOwner(t *testing.T) {
	counters := make([]*routeCounter, 3)
	var frz *freezer
	nodes := bootClusterWrapped(t, 3, func(i int, self string, peers []string) Options {
		return hbOpts(Options{Workers: 2, Node: self, Peers: peers})
	}, func(i int, h http.Handler) http.Handler {
		counters[i] = newRouteCounter(h)
		if i != 1 {
			return counters[i]
		}
		frz = newFreezer(counters[i])
		return frz
	})
	t.Cleanup(frz.thaw) // runs before the nodes shut down
	a, b := nodes[0], nodes[1]
	ctx := ctxT(t)

	body := configOwnedBy(t, a.srv, b.srv.nodeID, 700, longInstr)
	want := directBytes(t, body)
	st, err := a.c.SubmitRunJSON(ctx, []byte(body))
	if err != nil {
		t.Fatal(err)
	}
	waitFollowing(t, b, counters[1])
	frz.freeze()
	b.srv.clu.Stop()
	frozeAt := time.Now()

	limit := hbOpts(Options{}).DeadAfter + 2*time.Second
	for a.srv.met.proxyHandoff.Value()+a.srv.met.proxyFallbck.Value() == 0 {
		if time.Since(frozeAt) > limit {
			t.Fatalf("proxy still following a frozen owner after %v", limit)
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitDone(t, a.c, st.ID, want)
	if got := a.srv.met.streamLost.Value(); got != 1 {
		t.Fatalf("stream_lost %d, want 1", got)
	}
}
