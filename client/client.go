// Package client is the typed Go client for the nocstar serve tier.
// It covers every /v1 endpoint — run submission and tracking, streamed
// sweeps, workload and experiment catalogs, cluster introspection —
// with contexts plumbed through and the server's unified error
// envelope decoded into errors.Is-able typed errors.
//
// Quick start:
//
//	c := client.New("http://localhost:8080")
//	st, err := c.Run(ctx, cfg) // submit + wait
//	if err != nil { ... }
//	var res nocstar.Result
//	_ = st.Decode(&res)
//
// Any cluster node answers for any run ID: the serve tier's shared job
// namespace resolves IDs minted elsewhere by proxying to the live
// owner or serving from the replicated store, so the client can point
// at a load balancer without sticky sessions.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"nocstar"
	"nocstar/internal/sse"
)

// Client talks to one nocstar serve-tier base URL.
type Client struct {
	base string
	http *http.Client
	poll time.Duration
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, instrumentation). The default client has no global
// timeout — per-call contexts bound each request — so SSE streams and
// long waits are not cut off mid-flight.
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) { c.http = h }
}

// WithPollInterval sets the status-poll cadence Wait falls back to
// when the event stream is unavailable (default 50ms).
func WithPollInterval(d time.Duration) Option {
	return func(c *Client) {
		if d > 0 {
			c.poll = d
		}
	}
}

// New builds a client for the node (or load balancer) at baseURL.
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base: strings.TrimRight(strings.TrimSpace(baseURL), "/"),
		http: &http.Client{},
		poll: 50 * time.Millisecond,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// BaseURL returns the base URL the client targets.
func (c *Client) BaseURL() string { return c.base }

// Run states, mirroring the server's job lifecycle.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// RunStatus is one run's wire status.
type RunStatus struct {
	// ID is the cluster-wide run ID (resolvable on any node).
	ID string `json:"id"`
	// State is one of the State* constants.
	State string `json:"state"`
	// ConfigHash is the canonical config hash the run executes.
	ConfigHash string `json:"config_hash"`
	// Node identifies the cluster node that minted the run.
	Node string `json:"node,omitempty"`
	// Cached reports the result was served from the content-addressed
	// store rather than executed.
	Cached bool `json:"cached,omitempty"`
	// Deduped reports the submission joined an identical live run.
	Deduped bool `json:"deduped,omitempty"`
	// Error is the failure or cancellation reason for terminal states.
	Error string `json:"error,omitempty"`
	// Result holds the marshaled nocstar.Result for done runs —
	// byte-identical to a direct in-process Run of the same config.
	Result json.RawMessage `json:"result,omitempty"`
}

// Terminal reports whether the status is done, failed, or canceled.
func (st RunStatus) Terminal() bool {
	return st.State == StateDone || st.State == StateFailed || st.State == StateCanceled
}

// Decode unmarshals the run's result bytes into out.
func (st RunStatus) Decode(out *nocstar.Result) error {
	if st.Result == nil {
		return fmt.Errorf("nocstar: run %s has no result (state %s)", st.ID, st.State)
	}
	return json.Unmarshal(st.Result, out)
}

// RunOption customizes one submission.
type RunOption func(*url.Values)

// WithTimeout sets the server-side run deadline (?timeout=).
func WithTimeout(d time.Duration) RunOption {
	return func(v *url.Values) { v.Set("timeout", d.String()) }
}

// SubmitRun submits one config. The returned status is 202-queued (or
// running/proxied), 200-done for a store hit, or deduped onto an
// identical live run; follow it with Wait.
func (c *Client) SubmitRun(ctx context.Context, cfg nocstar.Config, opts ...RunOption) (RunStatus, error) {
	body, err := cfg.MarshalCanonical()
	if err != nil {
		return RunStatus{}, fmt.Errorf("nocstar: marshaling config: %w", err)
	}
	return c.SubmitRunJSON(ctx, body, opts...)
}

// SubmitRunJSON submits a raw JSON config document (the canonical
// encoding, or hand-written input with suite-workload shorthand).
func (c *Client) SubmitRunJSON(ctx context.Context, cfg []byte, opts ...RunOption) (RunStatus, error) {
	var st RunStatus
	err := c.do(ctx, http.MethodPost, "/v1/runs"+runQuery(opts), cfg, &st)
	return st, err
}

// GetRun fetches one run's status (result included when terminal).
// The ID need not have been minted by this client's node.
func (c *Client) GetRun(ctx context.Context, id string) (RunStatus, error) {
	var st RunStatus
	err := c.do(ctx, http.MethodGet, "/v1/runs/"+url.PathEscape(id), nil, &st)
	return st, err
}

// ListRuns lists the node's retained runs (results elided).
func (c *Client) ListRuns(ctx context.Context) ([]RunStatus, error) {
	var out []RunStatus
	err := c.do(ctx, http.MethodGet, "/v1/runs", nil, &out)
	return out, err
}

// Cancel stops a queued or running run.
func (c *Client) Cancel(ctx context.Context, id string) (RunStatus, error) {
	var st RunStatus
	err := c.do(ctx, http.MethodDelete, "/v1/runs/"+url.PathEscape(id), nil, &st)
	return st, err
}

// Wait follows a run to a terminal state and returns its final status,
// result bytes included. It prefers the server's SSE event stream and
// falls back to polling when streaming is unavailable; either way the
// terminal status is re-fetched with GetRun so the result payload is
// present.
func (c *Client) Wait(ctx context.Context, id string) (RunStatus, error) {
	if err := c.waitEvents(ctx, id); err != nil {
		// Stream unavailable (proxy in the path, owner restarted, ...):
		// poll instead. Context errors are final.
		if ctx.Err() != nil {
			return RunStatus{}, ctx.Err()
		}
		if err := c.waitPoll(ctx, id); err != nil {
			return RunStatus{}, err
		}
	}
	return c.GetRun(ctx, id)
}

// Run submits cfg and waits for its terminal status: the one-call path
// for synchronous callers.
func (c *Client) Run(ctx context.Context, cfg nocstar.Config, opts ...RunOption) (RunStatus, error) {
	st, err := c.SubmitRun(ctx, cfg, opts...)
	if err != nil {
		return st, err
	}
	if st.Terminal() {
		return st, nil
	}
	return c.Wait(ctx, st.ID)
}

// waitEvents follows the run's SSE stream until a terminal frame.
func (c *Client) waitEvents(ctx context.Context, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+"/v1/runs/"+url.PathEscape(id)+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	saw := false
	err = sse.Read(resp.Body, func(event string, data []byte) error {
		var st RunStatus
		if err := json.Unmarshal(data, &st); err != nil {
			return err
		}
		if st.Terminal() {
			saw = true
			return sse.ErrStop
		}
		return nil
	})
	if err != nil {
		return err
	}
	if !saw {
		return fmt.Errorf("nocstar: event stream for %s ended before a terminal state", id)
	}
	return nil
}

// waitPoll polls the run's status until terminal.
func (c *Client) waitPoll(ctx context.Context, id string) error {
	for {
		var st RunStatus
		if err := c.do(ctx, http.MethodGet, "/v1/runs/"+url.PathEscape(id), nil, &st); err != nil {
			return err
		}
		if st.Terminal() {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(c.poll):
		}
	}
}

// Workloads fetches the server's workload suite.
func (c *Client) Workloads(ctx context.Context) ([]nocstar.WorkloadSpec, error) {
	var out []nocstar.WorkloadSpec
	err := c.do(ctx, http.MethodGet, "/v1/workloads", nil, &out)
	return out, err
}

// ExperimentInfo describes one runnable paper-reproduction experiment.
type ExperimentInfo struct {
	ID          string `json:"id"`
	Description string `json:"description"`
}

// Experiments lists the server's reproducible tables and figures.
func (c *Client) Experiments(ctx context.Context) ([]ExperimentInfo, error) {
	var out []ExperimentInfo
	err := c.do(ctx, http.MethodGet, "/v1/experiments", nil, &out)
	return out, err
}

// ClusterNode is one member of the serve tier's membership view.
type ClusterNode struct {
	ID           string `json:"id"`
	Addr         string `json:"addr"`
	Epoch        int64  `json:"epoch"`
	State        string `json:"state"` // alive | suspect | dead
	QueueDepth   int    `json:"queue_depth"`
	QueueCap     int    `json:"queue_cap"`
	StoreEntries int    `json:"store_entries"`
	LastSeenMS   int64  `json:"last_seen_ms"`
}

// ClusterView is the versioned membership snapshot.
type ClusterView struct {
	Version uint64        `json:"version"`
	Self    string        `json:"self"`
	Nodes   []ClusterNode `json:"nodes"`
}

// Live returns the view's alive members.
func (v ClusterView) Live() []ClusterNode {
	var out []ClusterNode
	for _, n := range v.Nodes {
		if n.State == "alive" {
			out = append(out, n)
		}
	}
	return out
}

// Ownership is the ?hash= ownership preview: where the current view
// places a canonical config hash.
type Ownership struct {
	Hash       string        `json:"hash"`
	Owner      ClusterNode   `json:"owner"`
	Successors []ClusterNode `json:"successors,omitempty"`
}

// ClusterInfo is the GET /v1/cluster response.
type ClusterInfo struct {
	View      ClusterView `json:"view"`
	Ownership *Ownership  `json:"ownership,omitempty"`
}

// Cluster fetches the node's membership view. A non-empty hash adds
// the ownership preview for that canonical config hash.
func (c *Client) Cluster(ctx context.Context, hash string) (ClusterInfo, error) {
	path := "/v1/cluster"
	if hash != "" {
		path += "?hash=" + url.QueryEscape(hash)
	}
	var out ClusterInfo
	err := c.do(ctx, http.MethodGet, path, nil, &out)
	return out, err
}

// Health is the /healthz document.
type Health struct {
	Status   string `json:"status"` // ok | draining
	Workers  int    `json:"workers"`
	Running  int64  `json:"running"`
	Queued   int    `json:"queued"`
	QueueCap int    `json:"queue_cap"`
	Jobs     int    `json:"jobs"`
	Cached   int    `json:"cached"`
	Node     string `json:"node"`
	Epoch    string `json:"epoch"`
	Addr     string `json:"addr"`
	Members  int    `json:"members"`
}

// Health fetches the node's health document. A draining node answers
// 503; the document is still returned alongside the typed error.
func (c *Client) Health(ctx context.Context) (Health, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return Health{}, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return Health{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return Health{}, err
	}
	var h Health
	if jerr := json.Unmarshal(raw, &h); jerr != nil {
		return Health{}, fmt.Errorf("nocstar: decoding health: %w", jerr)
	}
	if resp.StatusCode != http.StatusOK {
		return h, &APIError{Status: resp.StatusCode, Code: "draining", Message: "server is draining"}
	}
	return h, nil
}

// Metrics scrapes /metrics and returns every sample by name (Prometheus
// text format flattened; counters and gauges alike).
func (c *Client) Metrics(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(value), 64)
		if err != nil {
			continue
		}
		out[name] = f
	}
	return out, sc.Err()
}

// Metric scrapes one sample from /metrics; absent names return 0.
func (c *Client) Metric(ctx context.Context, name string) (float64, error) {
	all, err := c.Metrics(ctx)
	if err != nil {
		return 0, err
	}
	return all[name], nil
}

// runQuery renders submission options as a query string.
func runQuery(opts []RunOption) string {
	if len(opts) == 0 {
		return ""
	}
	v := url.Values{}
	for _, o := range opts {
		o(&v)
	}
	if len(v) == 0 {
		return ""
	}
	return "?" + v.Encode()
}

// do performs one JSON round-trip: non-2xx decodes to *APIError, 2xx
// decodes into out (when non-nil).
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return decodeError(resp)
	}
	if out == nil {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		return nil
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("nocstar: decoding %s %s response: %w", method, path, err)
	}
	return nil
}
