package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"time"

	"dyflow/internal/obs"
	"dyflow/internal/server/fleet"
)

// The coordinator side of the fleet worker API (docs/SERVICE.md, "The
// worker fleet"). Wire types live in internal/server/fleet so the Worker
// client and these handlers cannot drift apart.
//
//	POST /v1/workers/register           join the fleet
//	POST /v1/workers/{id}/claim         lease one queued run (204 = empty)
//	POST /v1/workers/{id}/heartbeat     renew a lease, learn of cancellation
//	POST /v1/workers/{id}/result        upload an outcome (lease-gated)
//	PUT  /v1/blobs/{digest}             upload one artifact blob
//	GET  /v1/blobs/{digest}             fetch a blob (HEAD probes existence)
//	GET  /v1/fleet                      workers + leases view

// maxBlobBytes bounds one artifact upload.
const maxBlobBytes = 128 << 20

// claimYield is the wait between popping a run and claiming it. A handler
// woken by a push runs ahead of the network poller, so on a busy
// coordinator the claim's work delayed a local client's read of the
// submission's acknowledgment (fleet-fresh on 2 cores: ack_p50 +28% when
// claiming at once; queue wait ~0.15 ms with this wait).
const claimYield = 50 * time.Microsecond

// fleetRoutes mounts the worker API on the coordinator's mux. route is
// Handler's counting registrar.
func (s *Server) fleetRoutes(route func(pattern, name string, h http.HandlerFunc)) {
	route("POST /v1/workers/register", "worker_register", s.handleRegister)
	route("POST /v1/workers/{id}/claim", "worker_claim", s.handleClaim)
	route("POST /v1/workers/{id}/heartbeat", "worker_heartbeat", s.handleHeartbeat)
	route("POST /v1/workers/{id}/result", "worker_result", s.handleResult)
	route("POST /v1/workers/{id}/metrics", "worker_metrics", s.handleWorkerMetrics)
	route("PUT /v1/blobs/{digest}", "blob_put", s.handleBlobPut)
	route("GET /v1/blobs/{digest}", "blob_get", s.handleBlobGet)
	route("GET /v1/fleet", "fleet", s.handleFleetView)
	route("GET /v1/fleet/metrics", "fleet_metrics", s.handleFleetMetrics)
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req fleet.RegisterRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, &APIError{Code: http.StatusBadRequest, Msg: "bad register body: " + err.Error()})
		return
	}
	id := s.fleet.Register(req.Name, req.Slots)
	ttl := s.fleet.TTL()
	s.writeJSON(w, http.StatusOK, fleet.RegisterResponse{
		WorkerID:    id,
		LeaseTTLMs:  ttl.Milliseconds(),
		HeartbeatMs: (ttl / 3).Milliseconds(),
	})
}

// handleClaim hands the worker one queued run under a fresh lease,
// blocking in the queue pop up to the requested wait when the queue is
// empty. An unknown worker ID — one registered with an earlier coordinator
// process — gets 404 and re-registers.
func (s *Server) handleClaim(w http.ResponseWriter, r *http.Request) {
	workerID := r.PathValue("id")
	var req fleet.ClaimRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, &APIError{Code: http.StatusBadRequest, Msg: "bad claim body: " + err.Error()})
		return
	}
	// An empty-queue poll still proves liveness.
	if !s.fleet.Touch(workerID) {
		httpError(w, &APIError{Code: http.StatusNotFound, Msg: "unknown worker " + workerID})
		return
	}
	wait := min(max(time.Duration(req.WaitMs)*time.Millisecond, 0), 30*time.Second)
	// The wait ends at the long-poll deadline, on client disconnect (a
	// partitioned or killed worker must not pin a handler goroutine for
	// the full window), or at shutdown.
	ctx, cancel := context.WithTimeout(r.Context(), wait)
	defer cancel()
	for !s.shuttingDown() {
		id, ok := s.queue.pop(ctx, 0, s.stopped)
		if !ok {
			break
		}
		time.Sleep(claimYield)
		s.mu.Lock()
		leaseID, err := s.fleet.Grant(workerID, id)
		var run *Run
		if err == nil {
			run = s.claimLocked(id, workerID, leaseID)
		} else if q := s.runs[id]; q != nil {
			s.queue.requeue(q.Shard, id) // put it back for someone legitimate
		}
		s.mu.Unlock()
		if err != nil {
			httpError(w, &APIError{Code: http.StatusNotFound, Msg: err.Error()})
			return
		}
		if run != nil {
			s.writeJSON(w, http.StatusOK, fleet.ClaimResponse{
				RunID: id, Job: run.Job, LeaseID: leaseID, LeaseTTLMs: s.fleet.TTL().Milliseconds(),
			})
			return
		}
		// That run finished at claim time (canceled/cached); try the next.
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	workerID := r.PathValue("id")
	var req fleet.HeartbeatRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, &APIError{Code: http.StatusBadRequest, Msg: "bad heartbeat body: " + err.Error()})
		return
	}
	resp := fleet.HeartbeatResponse{Valid: s.fleet.Heartbeat(workerID, req.RunID, req.LeaseID)}
	if resp.Valid {
		s.mu.Lock()
		run := s.runs[req.RunID]
		s.mu.Unlock()
		resp.Cancel = run != nil && s.observeProgress(run, workerID, req.SimNs) || s.shuttingDown()
		s.appendWorkerSpans(req.RunID, workerID, req.Spans)
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleResult applies a worker's outcome — if and only if the worker
// still holds the run's live lease. A lapsed, revoked, or superseded
// lease means the coordinator already requeued (or canceled) the run;
// the upload is counted stale and ignored, which is what makes
// completion at-most-once *observable* even though a run may execute
// more than once.
//
// The lease ID doubles as the result's idempotency key: when a worker
// retransmits a completion whose 200 was lost in flight, the run is
// already terminal under that very lease — the retry is acknowledged
// Accepted (Reason "duplicate") and counted in
// dyflow_server_fleet_duplicate_results_total instead of stale.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	workerID := r.PathValue("id")
	var req fleet.ResultRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, &APIError{Code: http.StatusBadRequest, Msg: "bad result body: " + err.Error()})
		return
	}
	if s.isDuplicateResult(&req) {
		s.met.dupResults.Inc()
		s.writeJSON(w, http.StatusOK, fleet.ResultResponse{Accepted: true, Reason: "duplicate"})
		return
	}
	if !s.fleet.Release(workerID, req.RunID, req.LeaseID) {
		s.writeJSON(w, http.StatusOK, fleet.ResultResponse{Reason: "lease not current; result ignored"})
		return
	}

	s.appendWorkerSpans(req.RunID, workerID, req.Spans)

	o := outcome{state: StateDone, converged: req.Converged,
		simEnd: time.Duration(req.SimEndNs), artifacts: req.Artifacts}
	switch {
	case req.Requeue:
		// The worker executed the run but could not deliver its artifacts
		// (degraded blob plane): it hands the still-valid lease back and
		// the run returns to the queue rather than failing.
		s.logf("server: worker %s requeued %s: %s", workerID, req.RunID, req.Error)
		o.state, o.reason = StateQueued, "result_upload_failed"
	case req.Canceled:
		o.state = StateCanceled
	case req.Error != "":
		o.state, o.reason = StateFailed, req.Error
	}
	state, reason, ok := s.applyOutcome(req.RunID, workerID, o)
	s.fleet.NoteOutcome(workerID, string(state))
	var resp fleet.ResultResponse
	switch {
	case !ok:
		resp.Reason = "run not executing under this worker"
	case reason == "missing_blob":
		resp.Reason = "artifact blob missing; run requeued"
	case state == StateQueued:
		resp = fleet.ResultResponse{Accepted: true, Reason: "requeued"}
	default:
		resp.Accepted = true
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// isDuplicateResult reports whether this upload is a retransmission of a
// result already applied: the run reached its terminal state under
// exactly the lease this request carries.
func (s *Server) isDuplicateResult(req *fleet.ResultRequest) bool {
	if req.LeaseID == "" {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	run := s.runs[req.RunID]
	if run != nil {
		return run.State.Terminal() && run.doneLease == req.LeaseID
	}
	// Terminal runs are evicted to the history store; recentDone keeps the
	// (run, completing lease) pairs so a late retransmission still dedupes.
	return s.recentDone[req.RunID] == req.LeaseID
}

func (s *Server) handleBlobPut(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBlobBytes))
	if err != nil {
		httpError(w, &APIError{Code: http.StatusRequestEntityTooLarge, Msg: err.Error()})
		return
	}
	if err := s.blobs.PutAs(digest, data); err != nil {
		httpError(w, &APIError{Code: http.StatusBadRequest, Msg: err.Error()})
		return
	}
	w.WriteHeader(http.StatusCreated)
}

// handleBlobGet serves a blob; Go's mux and server make the same handler
// answer HEAD with headers only, which is how workers probe before
// uploading.
func (s *Server) handleBlobGet(w http.ResponseWriter, r *http.Request) {
	data, ok := s.blobs.Get(r.PathValue("digest"))
	if !ok {
		httpError(w, &APIError{Code: http.StatusNotFound, Msg: "no such blob"})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data)
}

func (s *Server) handleFleetView(w http.ResponseWriter, r *http.Request) {
	workers := s.fleet.Workers()
	s.writeJSON(w, http.StatusOK, fleet.View{
		LeaseTTLMs: s.fleet.TTL().Milliseconds(),
		Workers:    workers,
		Leases:     len(s.fleet.LeasedRuns()),
	})
}

// handleWorkerMetrics accepts a worker's pushed registry snapshot. The
// coordinator folds the latest snapshot per worker into /metrics (with a
// worker label) and serves them raw on GET /v1/fleet/metrics.
func (s *Server) handleWorkerMetrics(w http.ResponseWriter, r *http.Request) {
	workerID := r.PathValue("id")
	var snap obs.Snapshot
	if err := json.NewDecoder(r.Body).Decode(&snap); err != nil {
		httpError(w, &APIError{Code: http.StatusBadRequest, Msg: "bad metrics body: " + err.Error()})
		return
	}
	if !s.fleet.SetWorkerMetrics(workerID, snap) {
		httpError(w, &APIError{Code: http.StatusNotFound, Msg: "unknown worker " + workerID})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleFleetMetrics serves each worker's last pushed snapshot plus the
// merged, worker-labeled view.
func (s *Server) handleFleetMetrics(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, fleet.MetricsView{
		Workers: s.fleet.MetricsSnapshots(),
		Merged:  s.mergedSnapshot(),
	})
}
