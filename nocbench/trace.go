package main

import (
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nocstar/internal/store"
)

// The tracer records everything the traced run reports per layer, from
// outside the program: spans around the calls the benchmark makes, a
// store.Store decorator handed to the server through Options.Store,
// and a timing wrapper around each node's HTTP handler. A nil *tracer
// records nothing, which is how untraced runs use the same code.

// httpKey classifies one handled request: its route, and whether it
// arrived from a peer (the X-Nocstar-Forwarded header) or from the
// load generator.
type httpKey struct {
	Route     string
	Forwarded bool
}

type tracer struct {
	mu    sync.Mutex
	spans map[string][]float64  // span durations by name, ms
	http  map[httpKey][]float64 // handler durations, ms

	storeGets, storeHits, storePuts atomic.Int64
	storeMu                         sync.Mutex
	getMS, putMS                    []float64
}

func newTracer() *tracer {
	return &tracer{spans: map[string][]float64{}, http: map[httpKey][]float64{}}
}

// reset forgets everything recorded so far, so that what follows is
// measured alone.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans, t.http = map[string][]float64{}, map[httpKey][]float64{}
	t.mu.Unlock()
	t.storeGets.Store(0)
	t.storeHits.Store(0)
	t.storePuts.Store(0)
	t.storeMu.Lock()
	t.getMS, t.putMS = nil, nil
	t.storeMu.Unlock()
}

// start opens a span around one call the benchmark makes; the returned
// function closes it. On a nil tracer both are no-ops.
func (t *tracer) start(name string) func() {
	if t == nil {
		return func() {}
	}
	begin := time.Now()
	return func() {
		d := ms(time.Since(begin))
		t.mu.Lock()
		t.spans[name] = append(t.spans[name], d)
		t.mu.Unlock()
	}
}

// durations returns the durations, in ms, of every closed span named
// name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.spans[name]...)
}

// tracedStore times every Get and Put the server makes on its result
// store and counts hits.
type tracedStore struct {
	inner store.Store
	t     *tracer
}

func (s tracedStore) Get(hash string) ([]byte, bool) {
	begin := time.Now()
	b, ok := s.inner.Get(hash)
	d := ms(time.Since(begin))
	s.t.storeGets.Add(1)
	if ok {
		s.t.storeHits.Add(1)
	}
	s.t.storeMu.Lock()
	s.t.getMS = append(s.t.getMS, d)
	s.t.storeMu.Unlock()
	return b, ok
}

func (s tracedStore) Put(hash string, result []byte) error {
	begin := time.Now()
	err := s.inner.Put(hash, result)
	d := ms(time.Since(begin))
	s.t.storePuts.Add(1)
	s.t.storeMu.Lock()
	s.t.putMS = append(s.t.putMS, d)
	s.t.storeMu.Unlock()
	return err
}

func (s tracedStore) Len() int { return s.inner.Len() }

// forwardHeader is the serve tier's marker on requests one node sends
// another on a client's behalf.
const forwardHeader = "X-Nocstar-Forwarded"

// handler wraps a node's handler, timing each request by route and by
// whether a peer forwarded it.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		begin := time.Now()
		h.ServeHTTP(w, r)
		d := ms(time.Since(begin))
		k := httpKey{Route: route(r), Forwarded: r.Header.Get(forwardHeader) != ""}
		t.mu.Lock()
		t.http[k] = append(t.http[k], d)
		t.mu.Unlock()
	})
}

func (t *tracer) httpDurations(route string, forwarded bool) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.http[httpKey{route, forwarded}]...)
}

// route names a request by method and path pattern, with IDs and
// hashes collapsed.
func route(r *http.Request) string {
	p := r.URL.Path
	switch {
	case strings.HasPrefix(p, "/v1/runs/") && strings.HasSuffix(p, "/events"):
		p = "/v1/runs/{id}/events"
	case strings.HasPrefix(p, "/v1/runs/"):
		p = "/v1/runs/{id}"
	case strings.HasPrefix(p, "/v1/store/"):
		p = "/v1/store/{hash}"
	}
	return r.Method + " " + p
}
