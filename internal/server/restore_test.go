package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dyflow/internal/exp"
	"dyflow/internal/runstore"
)

// TestRestoreOverCapacityQueue is the restore-backpressure regression: a
// server killed with queued+running > QueueDepth must restart. The queue's
// capacity bound is admission backpressure for new submissions; the
// restore requeue used the same bounded push and failed with errQueueFull,
// leaving the service unable to come back up under exactly the load that
// likely killed it.
func TestRestoreOverCapacityQueue(t *testing.T) {
	dir := t.TempDir()

	s1, err := New(Config{Workers: 2, QueueDepth: 2, TenantQuota: -1, CkptDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan *Run, 2)
	release := make(chan struct{})
	s1.beforeRun = func(r *Run) {
		started <- r
		<-release
	}

	// 2 running (held by the hook) + 2 queued = 4 unfinished > depth 2. The
	// first pair must be in the workers' hands before the second pair can
	// clear admission.
	var ids []string
	for i := 0; i < 2; i++ {
		st, err := s1.Submit(fmt.Sprintf("t%d", i), quick(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for i := 0; i < 2; i++ {
		select {
		case <-started:
		case <-time.After(10 * time.Second):
			t.Fatal("workers never picked up runs")
		}
	}
	for i := 2; i < 4; i++ {
		st, err := s1.Submit(fmt.Sprintf("t%d", i), quick(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	if depth := s1.QueueDepth(); depth != 2 {
		t.Fatalf("queue depth %d with 2 runs held running", depth)
	}
	// Kill: flag shutdown first so the released runs abort at their next
	// progress tick instead of completing, then let Close reap the workers.
	s1.markStopping()
	close(release)
	s1.Close()

	s2, err := New(Config{Workers: 2, QueueDepth: 2, TenantQuota: -1, CkptDir: dir})
	if err != nil {
		t.Fatalf("restart with unfinished runs over QueueDepth: %v", err)
	}
	defer s2.Close()
	if got := len(s2.Runs()); got != 4 {
		t.Fatalf("restored %d of 4 runs", got)
	}
	for _, id := range ids {
		if st := await(t, s2, id); st.State != StateDone {
			t.Fatalf("run %s ended %s after over-capacity restart: %s", id, st.State, st.Error)
		}
	}
}

// TestRestoreOrphanedCachedRun is the orphaned-cache regression: a run
// journaled as a cached completion while its cache-source run was caught
// mid-execution by the crash restored as done with no artifacts — every
// artifact GET a permanent 404. Such a run must come back as queued (its
// job is deterministic, so re-execution or a later cache hit reproduces
// the identical bytes), never as done-but-unservable.
func TestRestoreOrphanedCachedRun(t *testing.T) {
	dir := t.TempDir()
	job, err := quick(7).Normalized()
	if err != nil {
		t.Fatal(err)
	}

	// Handcraft the crash run log the bug needs: run A acknowledged and
	// caught mid-execution (queued record only, no terminal record), run B
	// recorded as a cached done run with no artifact references of its
	// own — it pointed at A's in-memory artifacts, which died with the
	// process.
	store, err := runstore.Open(runstore.Options{Dir: filepath.Join(dir, "runs")})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	appendRun := func(p persistedRun) {
		t.Helper()
		doc, err := json.Marshal(p)
		must(err)
		must(store.Append(runstore.Meta{
			ID: p.ID, Tenant: p.Tenant, Scenario: p.Job.Scenario, Key: p.Job.Key(),
			State: string(p.State), Terminal: p.State.Terminal(), Cached: p.Cached,
			Converged: p.Converged, SubmittedAtNs: p.SubmittedAt.UnixNano(),
		}, doc))
	}
	appendRun(persistedRun{
		ID: "run-000000", Tenant: "alice", Job: job, State: StateQueued, SubmittedAt: now,
	})
	appendRun(persistedRun{
		ID: "run-000001", Tenant: "bob", Job: job, State: StateDone, Cached: true,
		Converged: true, SubmittedAt: now, FinishedAt: now,
	})
	must(store.Close())

	s, err := New(Config{Workers: 1, TenantQuota: -1, CkptDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// The moment restore finishes, no run may sit done with unservable
	// artifacts.
	for _, st := range s.Runs() {
		if st.State == StateDone {
			if _, err := s.Artifact(st.ID, exp.ArtifactReport); err != nil {
				t.Fatalf("restored run %s is done but its artifacts 404: %v", st.ID, err)
			}
		}
	}

	for _, id := range []string{"run-000000", "run-000001"} {
		st := await(t, s, id)
		if st.State != StateDone {
			t.Fatalf("run %s ended %s: %s", id, st.State, st.Error)
		}
		if blob, err := s.Artifact(id, exp.ArtifactReport); err != nil || len(blob) == 0 {
			t.Fatalf("run %s report after recovery: %v (%d bytes)", id, err, len(blob))
		}
	}
	a, _ := s.Artifact("run-000000", exp.ArtifactReport)
	b, _ := s.Artifact("run-000001", exp.ArtifactReport)
	if !bytes.Equal(a, b) {
		t.Fatal("recovered runs of the identical job diverge")
	}
}

// TestRestoreMissingBlobsRequeues covers the other orphan shape: done runs
// whose journaled artifact references point at blobs that did not survive
// the crash. They restore as queued and re-execute rather than serving
// artifact 404s.
func TestRestoreMissingBlobsRequeues(t *testing.T) {
	dir := t.TempDir()

	s1, err := New(Config{Workers: 1, TenantQuota: -1, CkptDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	first, err := s1.Submit("alice", quick(3))
	if err != nil {
		t.Fatal(err)
	}
	first = await(t, s1, first.ID)
	second, err := s1.Submit("bob", quick(3)) // cache hit, shares first's blobs
	if err != nil || !second.Cached {
		t.Fatalf("resubmission not cached: %v %+v", err, second)
	}
	s1.Close()
	if err := os.RemoveAll(filepath.Join(dir, "blobs")); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Config{Workers: 1, TenantQuota: -1, CkptDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for _, id := range []string{first.ID, second.ID} {
		st := await(t, s2, id)
		if st.State != StateDone {
			t.Fatalf("run %s ended %s after blob loss: %s", id, st.State, st.Error)
		}
		if blob, err := s2.Artifact(id, exp.ArtifactReport); err != nil || len(blob) == 0 {
			t.Fatalf("run %s report after blob loss: %v (%d bytes)", id, err, len(blob))
		}
	}
}

// syncBuf is a logger sink safe to read while worker goroutines log.
type syncBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestJournalFailuresObservable is the journal-observability regression:
// a failed run-log append — durability silently lost before the fix — must
// increment dyflow_server_journal_errors_total and reach the configured
// logger, on both the submit path and the terminal-transition path.
func TestJournalFailuresObservable(t *testing.T) {
	sink := &syncBuf{}
	s, err := New(Config{Workers: 1, Logger: log.New(sink, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	started := make(chan struct{})
	release := make(chan struct{})
	s.mu.Lock()
	s.beforeRun = func(*Run) {
		close(started)
		<-release
	}
	s.mu.Unlock()

	// Hold one accepted run in the running state, then break the run log
	// under it.
	held, err := s.Submit("alice", quick(2))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("run never started")
	}
	if err := s.History().Close(); err != nil {
		t.Fatal(err)
	}

	// Submit-path failure: the submission is refused (never acknowledged
	// without durability) and the failure is counted.
	if _, err := s.Submit("alice", quick(1)); err == nil {
		t.Fatal("submit acknowledged despite journal failure")
	}
	if v, _ := s.Registry().Value("dyflow_server_journal_errors_total"); v != 1 {
		t.Fatalf("journal_errors_total = %v after failed submit append", v)
	}

	// Terminal-path failure: the run still finishes (re-execution after a
	// restart is deterministic) but the lost durability is counted.
	close(release)
	if st := await(t, s, held.ID); st.State != StateDone {
		t.Fatalf("run ended %s with failing done-append", st.State)
	}
	if v, _ := s.Registry().Value("dyflow_server_journal_errors_total"); v != 2 {
		t.Fatalf("journal_errors_total = %v after failed done append", v)
	}
	if text := sink.String(); !strings.Contains(text, "journal") {
		t.Fatalf("journal failures never reached the logger:\n%s", text)
	}
	if text := metricsText(t, s); !strings.Contains(text, "dyflow_server_journal_errors_total 2") {
		t.Fatal("journal_errors_total missing from the Prometheus exposition")
	}
}

// TestKillRestartKeepsEveryTransition covers each transition the run log
// records across a kill: a run that completed, a cache-hit submission, a
// run caught running, a queued run that was canceled, and a run left
// queued. After a hard Close and a restart on the same directory every
// run is listed with the state its client saw — the interrupted run back
// in the queue — and run IDs continue past the highest recorded one.
func TestKillRestartKeepsEveryTransition(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Config{Workers: 1, TenantQuota: -1, CkptDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	done, err := s1.Submit("alice", quick(11))
	if err != nil {
		t.Fatal(err)
	}
	if done = await(t, s1, done.ID); done.State != StateDone {
		t.Fatalf("run %s ended %s: %s", done.ID, done.State, done.Error)
	}
	hit, err := s1.Submit("bob", quick(11))
	if err != nil || !hit.Cached || hit.State != StateDone {
		t.Fatalf("resubmission not a cache hit: %v %+v", err, hit)
	}

	// Hold the only worker so the next submissions stay queued.
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s1.mu.Lock()
	s1.beforeRun = func(*Run) {
		once.Do(func() { close(started) })
		<-release
	}
	s1.mu.Unlock()
	running, err := s1.Submit("alice", quick(12))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("run never started")
	}
	canceled, err := s1.Submit("bob", quick(13))
	if err != nil {
		t.Fatal(err)
	}
	if canceled, err = s1.Cancel(canceled.ID); err != nil || canceled.State != StateCanceled {
		t.Fatalf("cancel of a queued run: %v %+v", err, canceled)
	}
	queued, err := s1.Submit("carol", quick(14))
	if err != nil || queued.State != StateQueued {
		t.Fatalf("submit: %v %+v", err, queued)
	}

	// Kill: freeze the run log where the crash hits, then reap the process.
	if err := s1.History().Close(); err != nil {
		t.Fatal(err)
	}
	close(release)
	s1.Close()

	s2, err := New(Config{Workers: -1, TenantQuota: -1, CkptDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	want := map[string]RunState{
		done.ID:     StateDone,
		hit.ID:      StateDone,
		running.ID:  StateQueued, // interrupted mid-execution: requeued
		canceled.ID: StateCanceled,
		queued.ID:   StateQueued,
	}
	listed := s2.Runs()
	if len(listed) != len(want) {
		t.Fatalf("restored %d runs, want %d: %+v", len(listed), len(want), listed)
	}
	for _, st := range listed {
		if st.State != want[st.ID] {
			t.Fatalf("run %s restored as %s, want %s", st.ID, st.State, want[st.ID])
		}
	}
	if st, _ := s2.RunStatus(hit.ID); !st.Cached {
		t.Fatalf("cache-hit run %s lost its cached flag: %+v", hit.ID, st)
	}
	for _, id := range []string{done.ID, hit.ID} {
		if blob, err := s2.Artifact(id, exp.ArtifactReport); err != nil || len(blob) == 0 {
			t.Fatalf("run %s report after restart: %v (%d bytes)", id, err, len(blob))
		}
	}
	if v := counter(t, s2, "dyflow_server_restore_requeued_total"); v != 2 {
		t.Fatalf("restore_requeued_total = %v, want 2", v)
	}
	next, err := s2.Submit("dave", quick(15))
	if err != nil {
		t.Fatal(err)
	}
	if next.ID != "run-000005" {
		t.Fatalf("first run after restart is %s, want run-000005", next.ID)
	}
}

// TestRestoreIgnoresLegacyFiles pins that a WAL or snapshot left by the
// retired journal persistence is never read, only named in a warning.
func TestRestoreIgnoresLegacyFiles(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"snapshot.ckpt", "journal.wal"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("not a record"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sink := &syncBuf{}
	s, err := New(Config{Workers: -1, CkptDir: dir, Logger: log.New(sink, "", 0)})
	if err != nil {
		t.Fatalf("boot over legacy files: %v", err)
	}
	defer s.Close()
	for _, name := range []string{"snapshot.ckpt", "journal.wal"} {
		if !strings.Contains(sink.String(), name) {
			t.Fatalf("no warning names legacy %s:\n%s", name, sink.String())
		}
	}
	if got := len(s.Runs()); got != 0 {
		t.Fatalf("restored %d runs from legacy files", got)
	}
}
