package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dyflow/internal/exp"
	"dyflow/internal/server/events"
	"dyflow/internal/server/fleet"
)

// startFleetCoordinator builds a coordinator with no local worker pool —
// only fleet workers can execute — and serves its API on an ephemeral
// port.
func startFleetCoordinator(t *testing.T, ttl time.Duration) (*Server, string) {
	t.Helper()
	s, err := New(Config{Workers: -1, TenantQuota: -1, LeaseTTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, addr
}

// counter reads one summed metric value from the coordinator registry.
func counter(t *testing.T, s *Server, name string) float64 {
	t.Helper()
	v, _ := s.Registry().Value(name)
	return v
}

// TestFleetExecutesRuns covers the happy path of the worker fleet: remote
// workers claim queued runs over HTTP, execute them, upload artifacts to
// the content-addressed blob store, and report results; duplicate jobs
// are answered from the shared cache without a second execution.
func TestFleetExecutesRuns(t *testing.T) {
	s, addr := startFleetCoordinator(t, 2*time.Second)

	w1, err := fleet.JoinFleet(fleet.WorkerOptions{Coordinator: addr, Name: "w1", ClaimWait: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer w1.Stop()
	w2, err := fleet.JoinFleet(fleet.WorkerOptions{Coordinator: addr, Name: "w2", ClaimWait: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Stop()

	var ids []string
	for i := 0; i < 3; i++ {
		st, err := s.Submit(fmt.Sprintf("t%d", i), quick(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		st := await(t, s, id)
		if st.State != StateDone {
			t.Fatalf("run %s ended %s: %s", id, st.State, st.Error)
		}
		if st.Worker == "" {
			t.Fatalf("run %s done with no worker recorded", id)
		}
		for _, name := range []string{exp.ArtifactReport, exp.ArtifactMetrics} {
			if blob, err := s.Artifact(id, name); err != nil || len(blob) == 0 {
				t.Fatalf("artifact %s of %s: %v (%d bytes)", name, id, err, len(blob))
			}
		}
	}

	// A duplicate of a fleet-executed job is a fleet-wide cache hit.
	dup, err := s.Submit("dup", quick(0))
	if err != nil {
		t.Fatal(err)
	}
	if dup.State != StateDone || !dup.Cached {
		t.Fatalf("duplicate job not served from the shared cache: %+v", dup)
	}

	// The coordinator marks a run done before the worker's upload counter
	// ticks, so give the counters a moment to catch up.
	deadline := time.Now().Add(10 * time.Second)
	for w1.Completed()+w2.Completed() != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("workers report %d completions for 3 runs", w1.Completed()+w2.Completed())
		}
		time.Sleep(time.Millisecond)
	}
	if v := counter(t, s, "dyflow_server_fleet_claims_total"); v < 3 {
		t.Fatalf("fleet_claims_total = %v", v)
	}
	if v := counter(t, s, "dyflow_server_fleet_results_total"); v != 3 {
		t.Fatalf("fleet_results_total = %v", v)
	}
	if v := counter(t, s, "dyflow_server_fleet_workers"); v != 2 {
		t.Fatalf("fleet_workers gauge = %v", v)
	}
	if v := counter(t, s, "dyflow_server_fleet_blobs"); v == 0 {
		t.Fatal("no blobs recorded in the store")
	}
}

// TestFleetWorkerKillChaos is the fleet chaos drill: a worker is killed
// while holding a lease. The coordinator's lease expiry must requeue the
// run, a surviving worker must complete it, and completion must be
// observed exactly once in the run table.
func TestFleetWorkerKillChaos(t *testing.T) {
	const ttl = 150 * time.Millisecond
	s, addr := startFleetCoordinator(t, ttl)

	claimed := make(chan string, 1)
	release := make(chan struct{})
	victim, err := fleet.JoinFleet(fleet.WorkerOptions{
		Coordinator: addr,
		Name:        "victim",
		ClaimWait:   50 * time.Millisecond,
		OnClaim: func(runID string) {
			claimed <- runID
			<-release
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	doomed, err := s.Submit("alice", quick(100))
	if err != nil {
		t.Fatal(err)
	}
	var doomedRun string
	select {
	case doomedRun = <-claimed:
	case <-time.After(10 * time.Second):
		t.Fatal("victim never claimed the run")
	}
	if doomedRun != doomed.ID {
		t.Fatalf("victim claimed %s, expected %s", doomedRun, doomed.ID)
	}

	survivor, err := fleet.JoinFleet(fleet.WorkerOptions{Coordinator: addr, Name: "survivor", ClaimWait: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer survivor.Stop()
	var ids []string
	for i := 101; i <= 103; i++ {
		st, err := s.Submit("alice", quick(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}

	// Kill the victim mid-lease: it stops heartbeating and never uploads.
	killDone := make(chan struct{})
	go func() {
		victim.Kill()
		close(killDone)
	}()
	time.Sleep(20 * time.Millisecond) // let Kill flag the worker before unblocking it
	close(release)
	<-killDone

	// The lease lapses, the run requeues, and the survivor finishes it.
	for _, id := range append(ids, doomed.ID) {
		st := await(t, s, id)
		if st.State != StateDone {
			t.Fatalf("run %s ended %s: %s", id, st.State, st.Error)
		}
	}
	final, err := s.RunStatus(doomed.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Worker != survivor.ID() {
		t.Fatalf("doomed run finished on %q, survivor is %q", final.Worker, survivor.ID())
	}
	if blob, err := s.Artifact(doomed.ID, exp.ArtifactReport); err != nil || len(blob) == 0 {
		t.Fatalf("doomed run report: %v (%d bytes)", err, len(blob))
	}

	if v := counter(t, s, "dyflow_server_fleet_lease_expiries_total"); v < 1 {
		t.Fatalf("fleet_lease_expiries_total = %v, want >= 1", v)
	}
	// Exactly-once observable completion: 4 runs, 4 terminal transitions.
	if v := counter(t, s, "dyflow_server_runs_total"); v != 4 {
		t.Fatalf("runs_total = %v for 4 submissions", v)
	}
	if victim.Completed() != 0 {
		t.Fatalf("killed worker reports %d completions", victim.Completed())
	}
}

// TestFleetStaleResultIgnored drives the at-most-once gate end to end
// over HTTP: an upload under a lapsed lease must be rejected, counted
// stale, and leave the run untouched for legitimate re-execution.
func TestFleetStaleResultIgnored(t *testing.T) {
	const ttl = 100 * time.Millisecond
	s, addr := startFleetCoordinator(t, ttl)

	// A worker that holds its claim (no heartbeats) until told to go on.
	claimed := make(chan string, 1)
	release := make(chan struct{})
	worker, err := fleet.JoinFleet(fleet.WorkerOptions{
		Coordinator: addr,
		Name:        "sluggish",
		ClaimWait:   50 * time.Millisecond,
		OnClaim: func(runID string) {
			claimed <- runID
			<-release
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer worker.Stop()

	st, err := s.Submit("alice", quick(200))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-claimed:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never claimed the run")
	}
	// Capture the live lease, then wait it out while the worker sits
	// pre-execution without heartbeating.
	s.mu.Lock()
	workerID, leaseID := s.runs[st.ID].Worker, s.runs[st.ID].LeaseID
	s.mu.Unlock()
	deadline := time.Now().Add(10 * time.Second)
	for counter(t, s, "dyflow_server_fleet_lease_expiries_total") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("lease never expired")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The dead worker's upload arrives after the requeue: rejected.
	body, _ := json.Marshal(fleet.ResultRequest{RunID: st.ID, LeaseID: leaseID, Converged: true})
	resp, err := http.Post("http://"+addr+"/v1/workers/"+workerID+"/result", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var res fleet.ResultResponse
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if res.Accepted || res.Reason == "" {
		t.Fatalf("stale upload not rejected: %+v", res)
	}
	if v := counter(t, s, "dyflow_server_fleet_stale_results_total"); v < 1 {
		t.Fatalf("stale_results_total = %v", v)
	}
	if got, _ := s.RunStatus(st.ID); got.State.Terminal() {
		t.Fatalf("stale upload finished the run: %+v", got)
	}

	// Unblock the worker: its first execution aborts on the dead lease,
	// then it re-claims the requeued run and finishes it for real.
	close(release)
	if final := await(t, s, st.ID); final.State != StateDone {
		t.Fatalf("run ended %s: %s", final.State, final.Error)
	}
	if v := counter(t, s, "dyflow_server_runs_total"); v != 1 {
		t.Fatalf("runs_total = %v for 1 submission", v)
	}
}

// TestFleetWorkerRejoinsAfterCoordinatorRestart: a worker that joined
// before a coordinator restart (same address, same CkptDir) completes a
// run submitted after it. The restarted coordinator does not know the old
// worker ID, so the claim is answered 404 and the worker registers again.
// A claim handler that instead requeued the run and looped on it never
// reached its deadline; every bound here is a client timeout, so that
// failure shows as a failed test, not a hang.
func TestFleetWorkerRejoinsAfterCoordinatorRestart(t *testing.T) {
	cfg := Config{Workers: -1, TenantQuota: -1, CkptDir: t.TempDir()}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s1.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Two slots: both claim with the stale ID, and they re-register once.
	w, err := fleet.JoinFleet(fleet.WorkerOptions{Coordinator: addr, Slots: 2, ClaimWait: 50 * time.Millisecond,
		CallTimeout: time.Second, Client: &http.Client{Timeout: 2 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Kill()
	before := w.ID()
	s1.Close()

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := s2.Start(addr); err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	st, err := s2.Submit("alice", quick(400))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		got, err := s2.RunStatus(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.State.Terminal() {
			if got.State != StateDone || got.Worker != w.ID() || got.Worker == before {
				t.Fatalf("run ended %s on %q (worker was %q, now %q)", got.State, got.Worker, before, w.ID())
			}
			if n := len(s2.fleet.Workers()); n != 1 {
				t.Fatalf("%d registrations after the restart, want 1", n)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s still %s 15s after the restart: the pre-restart worker never claimed it", st.ID, got.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFleetShutdownRequeuesHeldRun: a fleet run aborted by shutdown goes
// back to queued, as a local run does, instead of ending canceled. The
// worker is told Cancel on its heartbeat after shutdown begins and reports
// Canceled; since no client canceled the run, it stays queued with a
// shutdown event, and the next process completes it.
func TestFleetShutdownRequeuesHeldRun(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Workers: -1, TenantQuota: -1, CkptDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	addr := strings.TrimPrefix(ts.URL, "http://")
	st, err := s.Submit("alice", quick(401))
	if err != nil {
		t.Fatal(err)
	}
	sub := s.events.Subscribe(st.ID, 0)
	defer sub.Close()

	var reg fleet.RegisterResponse
	if code := postFleetJSON(t, addr, "/v1/workers/register", fleet.RegisterRequest{Slots: 1}, &reg); code != http.StatusOK {
		t.Fatalf("register: %d", code)
	}
	var claim fleet.ClaimResponse
	if code := postFleetJSON(t, addr, "/v1/workers/"+reg.WorkerID+"/claim",
		fleet.ClaimRequest{WaitMs: 10000}, &claim); code != http.StatusOK || claim.RunID != st.ID {
		t.Fatalf("claim: %d %+v, want run %s", code, claim, st.ID)
	}

	s.markStopping()
	var hb fleet.HeartbeatResponse
	postFleetJSON(t, addr, "/v1/workers/"+reg.WorkerID+"/heartbeat",
		fleet.HeartbeatRequest{RunID: st.ID, LeaseID: claim.LeaseID, SimNs: 1}, &hb)
	if !hb.Valid || !hb.Cancel {
		t.Fatalf("heartbeat during shutdown answered %+v, want valid + cancel", hb)
	}
	var res fleet.ResultResponse
	postFleetJSON(t, addr, "/v1/workers/"+reg.WorkerID+"/result",
		fleet.ResultRequest{RunID: st.ID, LeaseID: claim.LeaseID, Canceled: true, Error: "canceled by coordinator"}, &res)
	if got, _ := s.RunStatus(st.ID); got.State != StateQueued {
		t.Fatalf("run aborted by shutdown is %s, want queued", got.State)
	}
	awaitRunEvent(t, sub, events.TypeQueued, "shutdown")
	ts.Close()
	s.Close()

	s2, err := New(Config{Workers: 1, TenantQuota: -1, CkptDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := await(t, s2, st.ID); got.State != StateDone {
		t.Fatalf("run ended %s after the restart: %s", got.State, got.Error)
	}
}
