package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"dyflow/internal/server"
)

// restoreBoots is how many crash-recovery boots restore_s is the median of.
const restoreBoots = 9

// metric is one named measurement with its unit.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is one benchmark run's result.
type outcome struct {
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Failures  []string       `json:"failures,omitempty"`
	Metrics   []metric       `json:"metrics"`
	Detail    map[string]any `json:"detail"`
	Journal   journalCounts  `json:"journal"`
	spans     []span
}

func (o *outcome) add(name string, v float64, unit string) {
	o.Metrics = append(o.Metrics, metric{name, v, unit})
}

func (o *outcome) failAll(errs []string) {
	o.Failed += len(errs)
	o.Failures = append(o.Failures, errs...)
}

// journalCounts are the coordinator's WAL defect counters since boot: the
// size-triggered snapshot and the sheds its lock convoy causes.
type journalCounts struct {
	SizeSnapshots int64 `json:"size_snapshots"`
	Sheds         int64 `json:"sheds"`
	Errors        int64 `json:"errors"`
}

func readJournalCounts(srv *server.Server) journalCounts {
	snap := srv.Registry().Snapshot()
	return journalCounts{
		SizeSnapshots: int64(counter(snap, "dyflow_server_snapshot_total", "reason", "journal_size")),
		Sheds:         int64(counter(snap, "dyflow_server_degraded_sheds_total", "component", "journal")),
		Errors:        int64(counter(snap, "dyflow_server_journal_errors_total")),
	}
}

// errsOf gathers the failures recorded on runs.
func errsOf(recs []*runRec) []string {
	var out []string
	for _, r := range recs {
		out = append(out, r.errs...)
	}
	return out
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// bench runs one workload: set-up (median of several boots), the timed
// drive, crash-restore, and with trace on the traced half and the
// per-layer breakdown.
func bench(w workload, seed int64, dur time.Duration, traced bool, workDir string) (*outcome, error) {
	gen := jobGen{w: w, seed: seed}
	rec := newRecorder()
	out := &outcome{Detail: map[string]any{}}

	setups := w.setups
	if traced {
		setups = 1
	}
	var st *stack
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if st != nil {
			st.close()
			runtime.GC() // each boot starts from a collected heap, as a new process would
		}
		t := time.Now()
		var err error
		st, err = bootStack(w, filepath.Join(workDir, fmt.Sprintf("boot-%d", i)), seed, rec)
		if err != nil {
			return nil, err
		}
		out.failAll(errsOf(st.warmup(gen)))
		setupTimes = append(setupTimes, time.Since(t).Seconds())
	}
	defer os.RemoveAll(st.dir)

	if !traced {
		c0 := cpuTime()
		recs, wall := st.drive(gen, dur)
		cpu := cpuTime() - c0
		out.Attempted = len(recs)
		out.failAll(errsOf(recs))
		e2e := endToEnd(recs, wall, cpu)
		out.Journal = readJournalCounts(st.srv)
		restores, errs := st.restore(restoreBoots, rec)
		out.failAll(errs)
		for _, m := range e2e.metrics {
			out.add(m.Name, m.Value, m.Unit)
		}
		out.add("peak_rss_mb", peakRSSMB(), "MB")
		out.add("setup_s", median(setupTimes), "s")
		out.add("restore_s", median(restores), "s")
		out.Detail["run_tail_s"] = e2e.runTail
		out.Detail["ack_tail_s"] = e2e.ackTail
		out.Detail["setup_boots_s"] = setupTimes
		out.Detail["restore_boots_s"] = restores
		return out, nil
	}

	// Traced: the first half is untraced, the second traced, on the same
	// stack; their end-to-end difference is the tracing overhead.
	half := dur / 2
	c0 := cpuTime()
	plain, plainWall := st.drive(gen, half)
	plainE2E := endToEnd(plain, plainWall, cpuTime()-c0)
	out.failAll(errsOf(plain))

	lay, recs, err := tracedDrive(st, gen, half, rec)
	if err != nil {
		return nil, err
	}
	out.Attempted = len(plain) + len(recs)
	out.failAll(errsOf(recs))
	out.failAll(lay.errs)
	out.Journal = readJournalCounts(st.srv)
	_, errs := st.restore(1, rec)
	out.failAll(errs)

	for _, m := range lay.metrics {
		out.add(m.Name, m.Value, m.Unit)
	}
	tracedE2E := lay.e2e
	out.add("trace.overhead_run_p50_pct", 100*(tracedE2E.get("run_p50_s")/plainE2E.get("run_p50_s")-1), "%")
	out.add("trace.overhead_jobs_per_s_pct", 100*(1-tracedE2E.get("jobs_per_s")/plainE2E.get("jobs_per_s")), "%")
	out.Detail["untraced"] = plainE2E.metrics
	out.Detail["traced"] = tracedE2E.metrics
	out.spans = rec.snapshot()
	return out, nil
}

// e2eStats are the end-to-end metrics of one drive.
type e2eStats struct {
	metrics []metric
	runTail tail
	ackTail tail
}

func (e e2eStats) get(name string) float64 {
	for _, m := range e.metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// endToEnd computes the per-drive end-to-end metrics from the client
// records: timings over the runs that ended done, throughput over the
// drive's wall time, CPU over completed runs. The run and ack tails are
// kept beside the metrics: they track the host's speed from run to run
// more than the program's, so they are reported but not gated.
func endToEnd(recs []*runRec, wall, cpu time.Duration) e2eStats {
	var run, ack, art, query []time.Duration
	done := 0
	for _, r := range recs {
		if r.ID != "" {
			ack = append(ack, r.Ack)
		}
		if r.State != string(server.StateDone) {
			continue
		}
		done++
		run = append(run, r.Run)
		if r.Art > 0 {
			art = append(art, r.Art)
		}
		if r.Query > 0 {
			query = append(query, r.Query)
		}
	}
	runS, ackS := seconds(run), seconds(ack)
	e := e2eStats{runTail: tailOf(runS), ackTail: tailOf(ackS)}
	perRun := 0.0
	if done > 0 {
		perRun = cpu.Seconds() * 1e3 / float64(done)
	}
	e.metrics = []metric{
		{"run_p50_s", quantile(runS, 0.5), "s"},
		{"jobs_per_s", float64(done) / wall.Seconds(), "1/s"},
		{"ack_p50_s", quantile(ackS, 0.5), "s"},
		{"query_p50_s", quantile(seconds(query), 0.5), "s"},
		{"artifact_p50_s", quantile(seconds(art), 0.5), "s"},
		{"cpu_ms_per_run", perRun, "ms"},
	}
	return e
}
