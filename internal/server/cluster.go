package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"nocstar/internal/cluster"
)

// Cluster-facing plumbing for the serve tier: the /v1/cluster
// introspection endpoint, write-behind result replication, and the
// shared job namespace — resolving /v1/runs/{id} requests whose ID was
// minted by another node, by serving from the replicated store or
// proxying to the live minting node.

// clusterOwnership is the ?hash= ownership preview in a /v1/cluster
// response.
type clusterOwnership struct {
	Hash       string         `json:"hash"`
	Owner      cluster.Node   `json:"owner"`
	Successors []cluster.Node `json:"successors,omitempty"`
}

// clusterInfo is the GET /v1/cluster response document.
type clusterInfo struct {
	View      cluster.View      `json:"view"`
	Ownership *clusterOwnership `json:"ownership,omitempty"`
}

// clusterView snapshots the membership, synthesizing a single-node
// view when clustering is disabled so the endpoint's shape is uniform.
func (s *Server) clusterView() cluster.View {
	if s.clu != nil {
		return s.clu.View()
	}
	return cluster.View{
		Self: s.nodeID,
		Nodes: []cluster.Node{{
			ID:           s.nodeID,
			Addr:         s.self,
			Epoch:        s.epoch,
			State:        cluster.StateAlive,
			QueueDepth:   len(s.queue),
			QueueCap:     s.opts.QueueDepth,
			StoreEntries: s.results.Len(),
		}},
	}
}

// handleCluster serves the membership view, and with ?hash= an
// ownership preview: the HRW owner and replication successors the
// current view assigns that canonical hash.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	info := clusterInfo{View: s.clusterView()}
	if hash := r.URL.Query().Get("hash"); hash != "" {
		if !validHexHash(hash) {
			writeError(w, http.StatusBadRequest, codeBadRequest,
				fmt.Sprintf("bad hash %q: want 4-128 lowercase hex characters", hash))
			return
		}
		own := &clusterOwnership{Hash: hash}
		if s.clu != nil {
			owner, ok := s.clu.Owner(hash)
			if !ok {
				writeError(w, http.StatusServiceUnavailable, codeInternal, "no live members")
				return
			}
			own.Owner = owner
			own.Successors = s.clu.Successors(hash, s.opts.Replicas)
		} else {
			own.Owner = info.View.Nodes[0]
		}
		info.Ownership = own
	}
	writeJSON(w, http.StatusOK, info)
}

// validHexHash bounds and charset-checks a hash path/query element —
// the same shape store.Dir accepts, so a hash passing here is safe as
// a store key.
func validHexHash(hash string) bool {
	if len(hash) < 4 || len(hash) > 128 {
		return false
	}
	for _, c := range hash {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// replicate pushes a terminal result write-behind to the hash's HRW
// successors (Options.Replicas of them), so an owner death loses no
// hot results: any successor can serve the hash — and any job ID
// embedding it — straight from its store. Pushes are asynchronous and
// best-effort; a failed push reports the peer to the membership and is
// counted, and the periodic heartbeats plus copy-on-proxy make up any
// shortfall once the peer returns.
func (s *Server) replicate(hash string, result json.RawMessage) {
	if s.clu == nil || s.opts.Replicas <= 0 {
		return
	}
	targets := s.clu.Successors(hash, s.opts.Replicas)
	if len(targets) == 0 {
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for _, n := range targets {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			req, err := http.NewRequestWithContext(ctx, http.MethodPut,
				n.Addr+"/v1/store/"+hash, bytes.NewReader(result))
			if err != nil {
				cancel()
				continue
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := s.peers.call.Do(req)
			cancel()
			if err != nil {
				s.met.replicaErrs.Inc()
				s.clu.ReportFailure(n.ID)
				continue
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode >= 300 {
				s.met.replicaErrs.Inc()
				continue
			}
			s.met.replicaPush.Inc()
		}
	}()
}

// handleStorePut receives one replicated result: PUT /v1/store/{hash}
// with the raw marshaled Result as the body. The store is
// content-addressed, so the operation is idempotent and
// last-writer-wins is harmless (same hash, same bytes).
func (s *Server) handleStorePut(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if !validHexHash(hash) {
		writeError(w, http.StatusBadRequest, codeBadRequest,
			fmt.Sprintf("bad hash %q: want 4-128 lowercase hex characters", hash))
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
	if err != nil || len(body) == 0 {
		writeError(w, http.StatusBadRequest, codeBadRequest, "reading replica body")
		return
	}
	if err := s.results.Put(hash, body); err != nil {
		s.met.storeErrors.Inc()
		writeError(w, http.StatusInternalServerError, codeInternal, fmt.Sprintf("storing replica: %v", err))
		return
	}
	s.met.replicaRecv.Inc()
	w.WriteHeader(http.StatusNoContent)
}

// remoteJobNode resolves a non-local job ID to a proxy decision:
//   - storeHit: the embedded hash is in the local (replicated) store —
//     serve the terminal result without any network hop, even when the
//     minting node is dead.
//   - proxy to node: the minting node is alive; forward the request.
//   - otherwise an error status: not_found for IDs no view can route,
//     owner_unreachable for IDs minted by a known-but-down node.
func (s *Server) remoteJobNode(id string, fwd forwardInfo) (res json.RawMessage, hash string, node cluster.Node, status int, code string) {
	nodeID, _, h, ok := parseJobID(id)
	if !ok {
		return nil, "", cluster.Node{}, http.StatusNotFound, codeNotFound
	}
	if r, ok := s.results.Get(h); ok {
		return r, h, cluster.Node{}, 0, ""
	}
	// A forwarded lookup resolves locally: the sender already consulted
	// its view, and bouncing further would loop.
	if fwd.forwarded || s.clu == nil || nodeID == s.nodeID {
		return nil, "", cluster.Node{}, http.StatusNotFound, codeNotFound
	}
	n, known := s.clu.Lookup(nodeID)
	if !known {
		return nil, "", cluster.Node{}, http.StatusNotFound, codeNotFound
	}
	if n.State != cluster.StateAlive {
		return nil, "", cluster.Node{}, http.StatusBadGateway, codeOwnerUnreachable
	}
	return nil, h, n, 0, ""
}

// storedStatus synthesizes the terminal status a replicated result
// stands in for: the run is done, served from the store, under the
// caller's job ID.
func storedStatus(id, hash string, result json.RawMessage) runStatus {
	return runStatus{
		ID:         id,
		State:      string(stateDone),
		ConfigHash: hash,
		Cached:     true,
		Result:     result,
	}
}

// resolveRemoteGet serves GET /v1/runs/{id} for IDs minted elsewhere.
func (s *Server) resolveRemoteGet(w http.ResponseWriter, r *http.Request, id string) {
	res, hash, node, status, code := s.remoteJobNode(id, parseForward(r))
	switch {
	case res != nil:
		s.met.remoteGets.Inc()
		writeJSON(w, http.StatusOK, storedStatus(id, hash, res))
	case status != 0:
		s.writeLookupError(w, status, code, id)
	default:
		s.met.remoteGets.Inc()
		s.relayRequest(w, r, node, http.MethodGet, "/v1/runs/"+id, id, hash)
	}
}

// resolveRemoteCancel serves DELETE /v1/runs/{id} for IDs minted
// elsewhere. A store-served ID is already terminal; cancellation is a
// no-op success, mirroring DELETE of a local done job.
func (s *Server) resolveRemoteCancel(w http.ResponseWriter, r *http.Request, id string) {
	res, hash, node, status, code := s.remoteJobNode(id, parseForward(r))
	switch {
	case res != nil:
		st := storedStatus(id, hash, res)
		st.Result = nil
		writeJSON(w, http.StatusOK, st)
	case status != 0:
		s.writeLookupError(w, status, code, id)
	default:
		s.relayRequest(w, r, node, http.MethodDelete, "/v1/runs/"+id, id, hash)
	}
}

// resolveRemoteEvents serves GET /v1/runs/{id}/events for IDs minted
// elsewhere: a store-served ID emits its single terminal frame; a live
// minting node has its SSE stream relayed frame-by-frame.
func (s *Server) resolveRemoteEvents(w http.ResponseWriter, r *http.Request, id string) {
	res, hash, node, status, code := s.remoteJobNode(id, parseForward(r))
	if status != 0 {
		s.writeLookupError(w, status, code, id)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, codeInternal, "streaming unsupported")
		return
	}
	if res != nil {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		writeEvent(w, jobEvent{ID: id, State: string(stateDone)})
		flusher.Flush()
		return
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet,
		node.Addr+"/v1/runs/"+id+"/events", nil)
	if err != nil {
		writeError(w, http.StatusBadGateway, codeOwnerUnreachable, err.Error())
		return
	}
	req.Header.Set(forwardHeader, s.forwardValue(2))
	resp, err := s.peers.stream.Do(req)
	if err != nil {
		s.eventsFallback(w, flusher, id, hash, err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.relayResponseStatus(w, resp)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			flusher.Flush()
		}
		if err != nil {
			return
		}
	}
}

// eventsFallback answers an events relay whose upstream died: if the
// replicated result landed meanwhile, emit the terminal frame; else
// report the owner unreachable.
func (s *Server) eventsFallback(w http.ResponseWriter, flusher http.Flusher, id, hash string, err error) {
	if res, ok := s.results.Get(hash); ok && res != nil {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		writeEvent(w, jobEvent{ID: id, State: string(stateDone)})
		flusher.Flush()
		return
	}
	writeError(w, http.StatusBadGateway, codeOwnerUnreachable, err.Error())
}

// writeLookupError emits the enveloped error for a failed remote
// resolution.
func (s *Server) writeLookupError(w http.ResponseWriter, status int, code, id string) {
	msg := fmt.Sprintf("no run %s", id)
	if code == codeOwnerUnreachable {
		msg = fmt.Sprintf("run %s was minted by an unreachable node and no replica is available", id)
	}
	writeError(w, status, code, msg)
}

// relayRequest forwards one /v1/runs/{id} request to the minting node
// and copies the response back verbatim (the remote speaks the same
// envelope). A transport failure re-checks the replicated store — the
// node may have died after pushing its replica — before reporting the
// owner unreachable.
func (s *Server) relayRequest(w http.ResponseWriter, r *http.Request, node cluster.Node, method, path, id, hash string) {
	req, err := http.NewRequestWithContext(r.Context(), method, node.Addr+path, nil)
	if err != nil {
		writeError(w, http.StatusBadGateway, codeOwnerUnreachable, err.Error())
		return
	}
	req.Header.Set(forwardHeader, s.forwardValue(2))
	resp, err := s.peers.call.Do(req)
	if err != nil {
		s.clu.ReportFailure(node.ID)
		if res, ok := s.results.Get(hash); ok {
			st := storedStatus(id, hash, res)
			if method == http.MethodDelete {
				st.Result = nil
			}
			writeJSON(w, http.StatusOK, st)
			return
		}
		writeError(w, http.StatusBadGateway, codeOwnerUnreachable,
			fmt.Sprintf("relaying to %s: %v", node.Addr, err))
		return
	}
	defer resp.Body.Close()
	s.relayResponseStatus(w, resp)
}

// relayResponseStatus copies a peer response (status, content type,
// body) back to the client.
func (s *Server) relayResponseStatus(w http.ResponseWriter, resp *http.Response) {
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, io.LimitReader(resp.Body, 64<<20))
}
