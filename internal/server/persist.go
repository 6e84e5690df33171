package server

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"dyflow/internal/exp"
	"dyflow/internal/runstore"
)

// Persistence: the run-history store (internal/runstore, CkptDir/runs) is
// the coordinator's one durable log. Every transition appends the run's
// full persistedRun document there — a submission before its 2xx
// response is written, claims, requeues and terminal states as they
// happen — and the latest record per run wins. Artifact bytes never enter
// the log: a done run carries name → sha256 references into the
// content-addressed blob store (CkptDir/blobs), so N runs sharing a
// result cost one stored copy. Appends are written through without fsync:
// a killed process (kill -9) loses no acknowledged submission, but an OS
// crash can lose the log's unsynced tail.

// persistedRun is a Run's durable form — the document of its run-log
// record. ArtifactRefs are blob digests, not bytes.
type persistedRun struct {
	ID           string            `json:"id"`
	Tenant       string            `json:"tenant"`
	Job          exp.Job           `json:"job"`
	State        RunState          `json:"state"`
	Cached       bool              `json:"cached,omitempty"`
	Err          string            `json:"error,omitempty"`
	Converged    bool              `json:"converged,omitempty"`
	SimEndNs     int64             `json:"sim_end_ns,omitempty"`
	Worker       string            `json:"worker,omitempty"`
	ArtifactRefs map[string]string `json:"artifact_refs,omitempty"`
	SubmittedAt  time.Time         `json:"submitted_at"`
	QueuedAt     time.Time         `json:"queued_at,omitempty"`
	ClaimedAt    time.Time         `json:"claimed_at,omitempty"`
	StartedAt    time.Time         `json:"started_at,omitempty"`
	FinishedAt   time.Time         `json:"finished_at,omitempty"`
}

func (r *Run) persisted() persistedRun {
	return persistedRun{
		ID:           r.ID,
		Tenant:       r.Tenant,
		Job:          r.Job,
		State:        r.State,
		Cached:       r.Cached,
		Err:          r.Err,
		Converged:    r.Converged,
		SimEndNs:     int64(r.SimEnd),
		Worker:       r.Worker,
		ArtifactRefs: r.Artifacts,
		SubmittedAt:  r.SubmittedAt,
		QueuedAt:     r.QueuedAt,
		ClaimedAt:    r.ClaimedAt,
		StartedAt:    r.StartedAt,
		FinishedAt:   r.FinishedAt,
	}
}

func (s *Server) applyPersisted(p persistedRun) *Run {
	r := &Run{
		ID:          p.ID,
		Tenant:      p.Tenant,
		Job:         p.Job,
		Shard:       s.queue.shardFor(p.Tenant),
		State:       p.State,
		Cached:      p.Cached,
		Err:         p.Err,
		Converged:   p.Converged,
		SimEnd:      time.Duration(p.SimEndNs),
		Worker:      p.Worker,
		Artifacts:   p.ArtifactRefs,
		SubmittedAt: p.SubmittedAt,
		QueuedAt:    p.QueuedAt,
		ClaimedAt:   p.ClaimedAt,
		StartedAt:   p.StartedAt,
		FinishedAt:  p.FinishedAt,
	}
	r.simNow.Store(p.SimEndNs)
	return r
}

// restore opens the run log in dir and rebuilds the coordinator from it:
// run IDs continue past the highest recorded one, the result cache is
// rebuilt from done runs whose artifacts resolve, and every run that had
// not finished becomes resident and requeued (running runs re-execute from
// the start — the simulation is deterministic, so that is exact).
//
// Two recovery rules matter here:
//
//   - Requeueing bypasses the queue's capacity bound (queue.requeue): the
//     bound is admission backpressure for new submissions, and a server
//     killed with queued+running > QueueDepth must still be able to
//     restart and drain.
//   - A run recorded done whose artifact references do not resolve in the
//     blob store (blob files lost, or a cached run with no references) is
//     restored as queued instead of as a done run whose artifact GETs
//     would 404 forever. Determinism makes the re-execution (or a cache
//     hit at claim time) produce the identical bytes.
func (s *Server) restore(dir string) error {
	// The WAL and snapshot of the retired ckpt-journal persistence are
	// never read; warn so an operator knows they can be deleted.
	for _, name := range []string{"snapshot.ckpt", "journal.wal"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			s.logf("server: ignoring legacy %s in %s: run state is recovered from %s only",
				name, dir, filepath.Join(dir, "runs"))
		}
	}
	var err error
	s.history, err = runstore.Open(runstore.Options{
		Dir:          filepath.Join(dir, "runs"),
		SegmentBytes: s.cfg.RunstoreSegmentBytes,
		Metrics:      s.reg,
		Logger:       s.logger,
	})
	if err != nil {
		return err
	}

	// The EachMeta callback must not call back into the store, so it
	// only copies.
	var metas []runstore.Meta
	s.history.EachMeta(func(m runstore.Meta) bool {
		metas = append(metas, m)
		return true
	})
	// Runs share blobs (every cache hit references its source's), so each
	// digest is looked up once rather than once per referencing run.
	present := map[string]bool{}
	resolvable := func(refs map[string]string) bool {
		if len(refs) == 0 {
			return false
		}
		for _, digest := range refs {
			ok, seen := present[digest]
			if !seen {
				ok = s.blobs.Has(digest)
				present[digest] = ok
			}
			if !ok {
				return false
			}
		}
		return true
	}
	for _, m := range metas {
		if n, err := strconv.Atoi(strings.TrimPrefix(m.ID, "run-")); err == nil && n >= s.nextID {
			s.nextID = n + 1
		}
		servable := m.State == string(StateDone) && resolvable(m.Artifacts)
		if servable && !m.Cached && m.Key != "" {
			if _, have := s.cache[m.Key]; !have {
				s.cache[m.Key] = cacheEntry{
					RunID: m.ID, Converged: m.Converged,
					SimEnd: time.Duration(m.SimEndNs), Artifacts: m.Artifacts,
				}
			}
		}
		if servable || (m.Terminal && m.State != string(StateDone)) {
			continue // served from the log as recorded
		}
		p, ok := s.historyPersisted(m.ID)
		if !ok {
			continue
		}
		// Not terminal, or done with unservable artifacts: resident again
		// and requeued. The capacity bound is skipped — these runs were
		// all admitted before the crash.
		r := s.applyPersisted(p)
		r.Cached = false
		r.Artifacts = nil
		r.Converged = false
		r.SimEnd = 0
		r.FinishedAt = time.Time{}
		s.runs[r.ID] = r
		s.resetToQueuedLocked(r, "restore")
		s.inflight[r.Tenant]++
		s.queue.requeue(r.Shard, r.ID)
		s.met.requeued.Inc()
	}

	// Compact the blob store to what the log references plus the resident
	// runs' references.
	keep := s.history.Digests()
	for _, r := range s.runs {
		for _, digest := range r.Artifacts {
			keep[digest] = true
		}
	}
	s.blobs.GC(keep)
	return nil
}

// historyPersisted reads and decodes a run's latest document from the run
// log. It does disk I/O, so callers must not hold s.mu.
func (s *Server) historyPersisted(id string) (persistedRun, bool) {
	it, ok := s.history.Get(id)
	if !ok {
		return persistedRun{}, false
	}
	var p persistedRun
	if err := json.Unmarshal(it.Doc, &p); err != nil {
		s.logf("server: decode history doc %s: %v", id, err)
		return persistedRun{}, false
	}
	return p, true
}
