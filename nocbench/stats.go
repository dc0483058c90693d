package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// percentile returns the p-quantile (0 <= p <= 1) of vs by linear
// interpolation between closest ranks (the R-7 / numpy default
// definition): with n sorted samples it reads position (n-1)p. vs need
// not be sorted and is not modified. An empty input yields 0.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	h := float64(len(s)-1) * p
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(vs []float64) float64 { return percentile(vs, 0.5) }

// windowed is the median, over consecutive windows of size samples, of
// each window's p-quantile; a trailing partial window is dropped. A
// burst of outside load then moves one window's figure, not the run's.
// With fewer than two full windows, or size 0, it is the p-quantile of
// all of vs.
func windowed(vs []float64, size int, p float64) float64 {
	if size <= 0 || len(vs) < 2*size {
		return percentile(vs, p)
	}
	var per []float64
	for i := 0; i+size <= len(vs); i += size {
		per = append(per, percentile(vs[i:i+size], p))
	}
	return median(per)
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// request is one scheduled open-loop arrival: it is due Due after the
// phase starts, whatever happened to the requests before it.
type request struct {
	Due   time.Duration
	Class int
	Index int
}

// sample is the outcome of one open-loop request. Latency runs from the
// request's due time when earlier requests kept every worker busy past
// it, so a stall is charged to every request it delays. When a worker
// sat idle waiting for the due time, latency runs from the send: a late
// wake-up there is the generator's own timer slack, not the system's.
// Late is how far behind schedule the send began, either way.
type sample struct {
	Req     request
	Latency time.Duration
	Late    time.Duration
	Err     error
}

// openLoop sends reqs (sorted by Due) on the schedule that begins at
// start, from a fixed set of workers, so at most `workers` requests are
// in flight. A request whose due time has passed is sent at once. It returns one sample per request, in request
// order, after every worker has finished. Requests not yet sent when
// ctx ends are reported with ctx's error.
func openLoop(ctx context.Context, start time.Time, reqs []request, workers int, do func(context.Context, request) error) []sample {
	out := make([]sample, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				r := reqs[i]
				due := start.Add(r.Due)
				idle := false
				if wait := time.Until(due); wait > 0 {
					idle = true
					t := time.NewTimer(wait)
					select {
					case <-ctx.Done():
					case <-t.C:
					}
					t.Stop()
				}
				if err := ctx.Err(); err != nil {
					out[i] = sample{Req: r, Err: err}
					continue
				}
				sent := time.Now()
				from := due
				if idle {
					from = sent
				}
				err := do(ctx, r)
				out[i] = sample{Req: r, Latency: time.Since(from), Late: sent.Sub(due), Err: err}
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop calls fn(j) for every j below n from workers goroutines,
// each starting its next call when its last one returns, and returns
// the wall time of the whole and the first error.
func closedLoop(n, workers int, fn func(j int) error) (time.Duration, error) {
	var next atomic.Int64
	errs := make(chan error, workers)
	t0 := time.Now()
	for i := 0; i < workers; i++ {
		go func() {
			for j := int(next.Add(1) - 1); j < n; j = int(next.Add(1) - 1) {
				if err := fn(j); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	var err error
	for i := 0; i < workers; i++ {
		if e := <-errs; e != nil && err == nil {
			err = e
		}
	}
	return time.Since(t0), err
}
