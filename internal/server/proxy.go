package server

import (
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

	"nocstar/internal/cluster"
	"nocstar/internal/sse"
)

// Consistent-hash work sharding over dynamic membership. Every
// canonical config hash has exactly one owner under rendezvous (HRW)
// hashing computed over the *live* members of the current view
// (internal/cluster), so ownership recomputes on join/leave.
// Rendezvous hashing needs no ring state, and removing or adding one
// node only remaps the hashes that node owned — the rest of the design
// space stays put, and the content-addressed store makes any remapped
// hash a cache hit anyway. A submission landing on a non-owner is
// mirrored into a local proxy job that forwards to the owner and
// tracks the remote run, so clients interact with any node uniformly.
// When the owner becomes unreachable mid-flight, the job hands off to
// the next live node in HRW order — checking the local store first, in
// case the owner's write-behind replica already landed — and only then
// degrades to local execution. Either way the execution is counted;
// never silently duplicated.

// forwardHeader marks a request already forwarded by a peer. Its value
// is "<senderID> <senderViewVersion> <hops>": the sender's cluster ID,
// the membership view version it routed with, and how many forwarding
// hops the request has taken. A receiver whose view is strictly newer
// than the sender's may re-resolve ownership once (hops 1 -> 2);
// hops >= 2 always resolves locally, bounding proxy chains even when
// views disagree.
const forwardHeader = "X-Nocstar-Forwarded"

// forwardInfo is the parsed forwardHeader.
type forwardInfo struct {
	forwarded bool
	senderID  string
	version   uint64
	hops      int
}

// parseForward decodes the forward header. A malformed value is
// treated as an exhausted forward (hops 2): resolve locally rather
// than risk a proxy loop with a peer speaking a different dialect.
func parseForward(r *http.Request) forwardInfo {
	v := r.Header.Get(forwardHeader)
	if v == "" {
		return forwardInfo{}
	}
	parts := strings.Fields(v)
	if len(parts) != 3 {
		return forwardInfo{forwarded: true, hops: 2}
	}
	ver, err1 := strconv.ParseUint(parts[1], 10, 64)
	hops, err2 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil || hops < 1 {
		return forwardInfo{forwarded: true, hops: 2}
	}
	return forwardInfo{forwarded: true, senderID: parts[0], version: ver, hops: hops}
}

// forwardValue renders the header this node attaches when proxying
// with the given hop count.
func (s *Server) forwardValue(hops int) string {
	var ver uint64
	if s.clu != nil {
		ver = s.clu.Version()
	}
	return fmt.Sprintf("%s %d %d", s.nodeID, ver, hops)
}

// proxyTarget is one routing decision: the node to forward to and the
// hop count to stamp on the forwarded request.
type proxyTarget struct {
	node cluster.Node
	hops int
}

// route decides where a validated hash executes. Returns remote=false
// for local execution. For first-hand submissions the target is the
// HRW owner (or, when allowSpill is set and the gossiped view shows
// the owner's queue saturated, its first less-loaded successor, with
// hops exhausted so the successor runs it rather than bouncing it back
// to the owner). For forwarded submissions the default is local — the
// one-hop bound — except that a receiver with a strictly newer view
// than the sender may re-resolve once: if its view names a third node
// as owner (ownership moved mid-flight), the request follows the move
// instead of being executed by a node that no longer owns the hash.
func (s *Server) route(hash string, fwd forwardInfo, allowSpill bool) (proxyTarget, bool) {
	if s.clu == nil {
		return proxyTarget{}, false
	}
	self := s.clu.SelfID()
	if fwd.forwarded {
		if fwd.hops >= 2 {
			return proxyTarget{}, false
		}
		if s.clu.Version() <= fwd.version {
			return proxyTarget{}, false
		}
		owner, ok := s.clu.Owner(hash)
		if !ok || owner.ID == self || owner.ID == fwd.senderID {
			return proxyTarget{}, false
		}
		s.met.reresolved.Inc()
		return proxyTarget{node: owner, hops: fwd.hops + 1}, true
	}
	owner, ok := s.clu.Owner(hash)
	if !ok || owner.ID == self {
		return proxyTarget{}, false
	}
	if allowSpill && owner.QueueCap > 0 && owner.QueueDepth >= owner.QueueCap {
		for _, succ := range s.clu.Successors(hash, s.opts.Replicas+1) {
			if succ.QueueCap > 0 && succ.QueueDepth >= succ.QueueCap {
				continue
			}
			s.met.sweepSpilled.Inc()
			if succ.ID == self {
				return proxyTarget{}, false
			}
			// Hops exhausted: the successor must run the leg itself, not
			// route it back to the owner we are spilling away from.
			return proxyTarget{node: succ, hops: 2}, true
		}
	}
	return proxyTarget{node: owner, hops: 1}, true
}

// peerClients are the HTTP clients for peer traffic. Both share one
// transport, so proxy submissions, event streams, relays and
// replication PUTs reuse the same pool of keep-alive connections.
type peerClients struct {
	transport *http.Transport
	// call bounds each request/response exchange, so a hung peer
	// degrades to handoff instead of wedging the caller.
	call *http.Client
	// stream has no whole-request timeout: an event stream lasts as
	// long as the run it follows. Callers bound it themselves.
	stream *http.Client
}

// newPeerClients keeps up to perHost idle connections per peer. The
// server passes its own capacity, Workers+QueueDepth, which is the
// scale of a sweep's fan-out of proxied legs; Go's default of 2 idle
// connections per host would make nearly every leg dial afresh.
func newPeerClients(perHost int) peerClients {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 0 // no global cap: perHost times the cluster size bounds it
	t.MaxIdleConnsPerHost = perHost
	return peerClients{
		transport: t,
		call:      &http.Client{Transport: t, Timeout: 30 * time.Second},
		stream:    &http.Client{Transport: t},
	}
}

// proxyJob mirrors j onto target: the config is forwarded, the remote
// run's event stream followed to a terminal state, and the outcome —
// result bytes included, so they enter this node's store too — copied
// onto the local job. When the target becomes unreachable (its stream
// lost included) the job hands off: first the local store is consulted
// (the owner's write-behind replica may already hold the result — zero
// re-executions), then ownership is re-resolved against the membership
// view (the failure report demotes the dead node) and the run
// forwarded to the new owner; only when no untried live owner remains
// does the job fall back to local execution. Every path is counted. Cancellation of the local job
// (DELETE, deadline, shutdown) is relayed to the remote best-effort.
func (s *Server) proxyJob(j *job, target proxyTarget) {
	j.setState(stateRunning, nil, "")
	st, err := s.proxyRemote(j, target)
	if err == nil {
		s.finishProxied(j, jobState(st.State), st.Result, st.Error, st.Cached)
		return
	}
	if j.ctx.Err() != nil || j.terminal() {
		// Canceled while proxying: nothing left to hand off for.
		s.finishProxied(j, stateCanceled, nil, "canceled by request", false)
		return
	}
	// Handoff step 1: the owner's write-behind replica may have landed
	// here before the owner died. Serving it re-executes nothing.
	if res, ok := s.results.Get(j.hash); ok {
		s.met.proxyHandoff.Inc()
		s.finishProxied(j, stateDone, res, "", true)
		return
	}
	// Step 2: report the failure so ownership routes around the dead
	// node immediately, then re-resolve.
	s.clu.ReportFailure(target.node.ID)
	if owner, ok := s.clu.Owner(j.hash); ok && owner.ID != s.clu.SelfID() && owner.ID != target.node.ID {
		s.met.proxyHandoff.Inc()
		// Hops exhausted: our view already demoted the dead node, but
		// the new owner's may not have yet — it must run the job, not
		// bounce it back toward the corpse.
		st, err = s.proxyRemote(j, proxyTarget{node: owner, hops: 2})
		if err == nil {
			s.finishProxied(j, jobState(st.State), st.Result, st.Error, st.Cached)
			return
		}
		if j.ctx.Err() != nil || j.terminal() {
			s.finishProxied(j, stateCanceled, nil, "canceled by request", false)
			return
		}
		s.clu.ReportFailure(owner.ID)
	}
	// Step 3: last resort — run it here. Counted, never silent.
	s.met.proxyFallbck.Inc()
	s.execJob(j)
}

// finishProxied finishes a proxy job. A done result enters the local
// store (copy-on-proxy), but is not re-replicated: the executing node
// already pushed it to the hash's successors.
func (s *Server) finishProxied(j *job, state jobState, result json.RawMessage, msg string, cached bool) {
	s.unregisterInflight(j)
	if state == stateDone {
		if err := s.results.Put(j.hash, result); err != nil {
			s.met.storeErrors.Inc()
		}
	}
	if cached {
		j.mu.Lock()
		j.cached = true
		j.mu.Unlock()
	}
	j.setState(state, result, msg)
	switch state {
	case stateDone:
		s.met.completed.Inc()
	case stateCanceled:
		s.met.canceledRun.Inc()
	default:
		s.met.failed.Inc()
	}
}

// proxyRemote submits j's config to target, follows the remote run's
// event stream to a terminal frame, then fetches the terminal status
// (result bytes included) once. Errors mean "target unreachable or
// unusable" and select handoff; a remote terminal status (even failed
// or canceled) is returned as-is.
func (s *Server) proxyRemote(j *job, target proxyTarget) (runStatus, error) {
	body, err := j.cfg.MarshalCanonical()
	if err != nil {
		return runStatus{}, err
	}
	addr := target.node.Addr
	submitURL := addr + "/v1/runs"
	if j.timeout > 0 {
		submitURL += "?timeout=" + url.QueryEscape(j.timeout.String())
	}
	fwd := s.forwardValue(target.hops)
	st, code, err := s.proxyRequest(j.ctx, http.MethodPost, submitURL, body, fwd)
	if err != nil {
		return runStatus{}, err
	}
	switch code {
	case http.StatusOK, http.StatusAccepted:
	default:
		// 429/503/4xx from the target: treat as unavailable for this
		// hash and let the handoff path decide.
		return runStatus{}, fmt.Errorf("peer %s refused submission: status %d", addr, code)
	}
	if jobState(st.State).terminal() {
		return st, nil
	}
	if err := s.followEvents(j.ctx, target.node, st.ID); err != nil {
		if j.ctx.Err() != nil {
			s.relayCancel(addr, st.ID)
			return runStatus{State: string(stateCanceled), Error: "canceled by request"}, nil
		}
		s.met.streamLost.Inc()
		return runStatus{}, err
	}
	id := st.ID
	st, code, err = s.proxyRequest(j.ctx, http.MethodGet, addr+"/v1/runs/"+id, nil, s.forwardValue(2))
	if err != nil {
		return runStatus{}, err
	}
	if code != http.StatusOK || !jobState(st.State).terminal() {
		return runStatus{}, fmt.Errorf("peer %s lost run %s: status %d", addr, id, code)
	}
	return st, nil
}

// followEvents reads node's event stream for run id until a terminal
// frame. It fails — and the caller hands off — when the stream cannot
// be opened, ends before a terminal frame, or the membership view
// writes node off as dead. The view is checked on the heartbeat
// cadence: the stream has no timeout of its own, so a peer that stops
// answering without closing the connection is noticed through its
// missed heartbeats instead of holding the proxy job forever. Suspect
// is not enough: one late heartbeat or failed replication PUT sets it,
// and abandoning a stream that is still delivering would re-execute a
// healthy run.
func (s *Server) followEvents(ctx context.Context, node cluster.Node, id string) error {
	ctx, cancel := context.WithCancelCause(ctx)
	watched := make(chan struct{})
	defer func() {
		cancel(nil)
		<-watched
	}()
	go func() {
		defer close(watched)
		t := time.NewTicker(s.opts.HeartbeatInterval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				if n, ok := s.clu.Lookup(node.ID); !ok || n.State == cluster.StateDead {
					cancel(fmt.Errorf("peer %s left the membership view", node.Addr))
					return
				}
			}
		}
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, node.Addr+"/v1/runs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	req.Header.Set(forwardHeader, s.forwardValue(2))
	resp, err := s.peers.stream.Do(req)
	if err != nil {
		return streamErr(ctx, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("peer %s events for run %s: status %d", node.Addr, id, resp.StatusCode)
	}
	terminal := false
	err = sse.Read(resp.Body, func(_ string, data []byte) error {
		var ev jobEvent
		if err := json.Unmarshal(data, &ev); err != nil {
			return fmt.Errorf("decoding peer event: %w", err)
		}
		if jobState(ev.State).terminal() {
			terminal = true
			return sse.ErrStop
		}
		return nil
	})
	if terminal {
		// The owner ends the response after its terminal frame; reading
		// to EOF returns the connection to the pool for the status GET.
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err == nil {
		err = fmt.Errorf("peer %s events for run %s ended before a terminal state", node.Addr, id)
	}
	return streamErr(ctx, err)
}

// streamErr names why a follow was cut short: the membership watch's
// cause when it fired, err otherwise.
func streamErr(ctx context.Context, err error) error {
	if cause := context.Cause(ctx); cause != nil && cause != ctx.Err() {
		return cause
	}
	return err
}

// relayCancel relays a local cancellation to the remote run so it stops
// simulating. It runs on a fresh context: the job's is the one that died.
func (s *Server) relayCancel(addr, id string) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, addr+"/v1/runs/"+id, nil)
	if err != nil {
		return
	}
	req.Header.Set(forwardHeader, s.forwardValue(2))
	if resp, err := s.peers.call.Do(req); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// proxyRequest performs one peer call and decodes the runStatus body.
func (s *Server) proxyRequest(ctx context.Context, method, url string, body []byte, fwd string) (runStatus, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return runStatus{}, 0, err
	}
	req.Header.Set(forwardHeader, fwd)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.peers.call.Do(req)
	if err != nil {
		return runStatus{}, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return runStatus{}, 0, err
	}
	var st runStatus
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, &st); err != nil {
			return runStatus{}, 0, fmt.Errorf("decoding peer response: %w", err)
		}
	}
	return st, resp.StatusCode, nil
}
