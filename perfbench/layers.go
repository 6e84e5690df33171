package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"dyflow/internal/exp"
	"dyflow/internal/obs"
	"dyflow/internal/server"
)

// counter sums a family's series whose labels match the key/value pairs
// (counters and gauges alike).
func counter(snap obs.Snapshot, name string, kv ...string) float64 {
	var sum float64
	for _, m := range snap.Metrics {
		if m.Name != name {
			continue
		}
	series:
		for _, s := range m.Series {
			for i := 0; i+1 < len(kv); i += 2 {
				if s.Labels[kv[i]] != kv[i+1] {
					continue series
				}
			}
			sum += s.Value
		}
	}
	return sum
}

// histogram sums a histogram family's observation count and total.
func histogram(snap obs.Snapshot, name string) (count, sum float64) {
	for _, m := range snap.Metrics {
		if m.Name == name {
			for _, s := range m.Series {
				count += float64(s.Count)
				sum += s.Sum
			}
		}
	}
	return count, sum
}

// layerOut is the traced half's per-layer breakdown.
type layerOut struct {
	metrics []metric
	errs    []string
	e2e     e2eStats
}

func (l *layerOut) add(name string, v float64, unit string) {
	l.metrics = append(l.metrics, metric{name, v, unit})
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedDrive drives the stack with spans, RPC timing and a CPU profile
// on, then derives the per-layer metrics: coordinator phases from each
// run's stamps, counter deltas from the registries, fleet RPC timings,
// a direct exp.RunJob replay, CPU self-time by module and Go runtime
// allocation.
func tracedDrive(st *stack, gen jobGen, d time.Duration, rec *recorder) (*layerOut, []*runRec, error) {
	reg := st.srv.Registry()
	before := reg.Snapshot()
	retries0 := st.workerRetries()
	for _, tr := range st.fleetTr {
		tr.take()
	}
	var prof bytes.Buffer
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, nil, fmt.Errorf("cpu profile: %w", err)
	}
	rec.on.Store(true) // stays on: replay and restore spans follow
	c0 := cpuTime()
	recs, wall := st.drive(gen, d)
	cpu := cpuTime() - c0
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&ms1)
	after := reg.Snapshot()

	l := &layerOut{e2e: endToEnd(recs, wall, cpu)}
	var done []*runRec
	for _, r := range recs {
		if r.State == string(server.StateDone) {
			done = append(done, r)
		}
	}
	runs := float64(len(done))
	delta := func(name string, kv ...string) float64 {
		return counter(after, name, kv...) - counter(before, name, kv...)
	}

	// Coordinator lifecycle, from the phase stamps of every traced run.
	var samples []rpcSample
	claimRecv := map[string]time.Time{}
	for _, tr := range st.fleetTr {
		s, c := tr.take()
		samples = append(samples, s...)
		for id, t := range c {
			claimRecv[id] = t
		}
	}
	t := time.Now()
	page, err := st.srv.QueryRuns(server.RunQuery{})
	if err != nil {
		return nil, nil, fmt.Errorf("query run stamps: %w", err)
	}
	rec.add(span{Name: "server.query_runs", Track: "stamps", Start: t, End: time.Now()})
	stamps := make(map[string]server.Status, len(page.Runs))
	for _, s := range page.Runs {
		stamps[s.ID] = s
	}
	var wait, dispatch, execute, notify []float64
	for _, r := range done {
		s, ok := stamps[r.ID]
		if !ok || s.FinishedAt == nil {
			l.errs = append(l.errs, fmt.Sprintf("run %s: no finished stamp", r.ID))
			continue
		}
		phase := func(name string, from, to time.Time, into *[]float64) {
			*into = append(*into, to.Sub(from).Seconds())
			rec.add(span{Name: name, Run: r.ID, Track: "coordinator", Start: from, End: to})
		}
		if s.QueuedAt != nil && s.ClaimedAt != nil {
			phase("server.queue_wait", *s.QueuedAt, *s.ClaimedAt, &wait)
		}
		if s.ClaimedAt != nil && s.StartedAt != nil {
			started := *s.StartedAt
			if recv, ok := claimRecv[r.ID]; ok {
				started = recv // a fleet run starts when its worker holds the claim
			}
			phase("server.dispatch", *s.ClaimedAt, started, &dispatch)
			phase("server.execute", started, *s.FinishedAt, &execute)
		}
		phase("server.notify", *s.FinishedAt, r.Recv, &notify)
	}
	l.add("server.queue_wait_s", median(wait), "s")
	l.add("server.dispatch_s", median(dispatch), "s")
	l.add("server.execute_s", median(execute), "s")
	l.add("server.notify_s", median(notify), "s")
	l.add("server.http_requests_per_run", ratio(delta("dyflow_server_http_requests_total"), runs), "count")
	l.add("server.cache_hit_ratio", ratio(delta("dyflow_server_cache_hits_total"), delta("dyflow_server_submissions_total")), "ratio")
	jc := readJournalCounts(st.srv)
	l.add("server.journal_sheds", float64(jc.Sheds), "count")
	l.add("server.journal_size_snapshots", float64(jc.SizeSnapshots), "count")
	l.add("server.journal_errors", float64(jc.Errors), "count")

	// Run history store.
	l.add("runstore.appends_per_run", ratio(delta("dyflow_runstore_appends_total"), runs), "count")
	l.add("runstore.disk_bytes_per_run", ratio(counter(after, "dyflow_runstore_disk_bytes"), float64(st.srv.History().Len())), "B")
	l.add("runstore.rotations", counter(after, "dyflow_runstore_rotations_total"), "count")
	l.add("runstore.compactions", counter(after, "dyflow_runstore_compactions_total"), "count")
	c1, s1 := histogram(after, "dyflow_runstore_query_seconds")
	c0q, s0q := histogram(before, "dyflow_runstore_query_seconds")
	l.add("runstore.query_mean_s", ratio(s1-s0q, c1-c0q), "s")

	// Fleet RPC plane, as the workers saw it.
	byCall := map[string][]float64{}
	heads, headHits := 0, 0
	for _, s := range samples {
		byCall[s.call] = append(byCall[s.call], s.dur.Seconds())
		if s.call == "blob_head" {
			heads++
			if s.status == 200 {
				headHits++
			}
		}
	}
	for _, call := range []string{"claim", "heartbeat", "blob_put", "result"} {
		l.add("fleet."+call+"_s", median(byCall[call]), "s")
	}
	fleetRuns := 0.0
	if len(st.fleetTr) > 0 {
		fleetRuns = runs
	}
	l.add("fleet.rpcs_per_run", ratio(float64(len(samples)), fleetRuns), "count")
	l.add("fleet.rpc_retries", st.workerRetries()-retries0, "count")
	l.add("fleet.lease_expiries", delta("dyflow_server_fleet_lease_expiries_total"), "count")
	l.add("fleet.blob_dedup_ratio", ratio(float64(headHits), float64(heads)), "ratio")

	// Event streams.
	var evs []float64
	for _, r := range done {
		evs = append(evs, float64(r.Events))
	}
	l.add("events.per_run", mean(evs), "count")
	l.add("events.drops", delta("dyflow_server_event_drops_total"), "count")

	// The world itself, replayed directly.
	l.replay(st.w, done, rec)

	// CPU self-time by module, and the Go runtime.
	p, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, nil, err
	}
	shares := cpuShares(p)
	for _, m := range cpuModules {
		l.add("cpu."+m, shares[m], "share")
	}
	l.add("go.alloc_bytes_per_run", ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc), runs), "B")
	l.add("go.gc_cycles_per_run", ratio(float64(ms1.NumGC-ms0.NumGC), runs), "count")
	return l, recs, nil
}

// workerRetries sums the fleet workers' RPC retry counters.
func (st *stack) workerRetries() float64 {
	var n float64
	for _, wk := range st.workers {
		n += counter(wk.Registry().Snapshot(), "dyflow_worker_rpc_retries_total")
	}
	return n
}

// replay re-executes a sample of the served jobs through exp.RunJob,
// reading the kernel's counters off the world after each run, and checks
// each report against the artifact the coordinator served for it: the
// determinism the result cache relies on.
func (l *layerOut) replay(w workload, done []*runRec, rec *recorder) {
	seen := map[string]bool{}
	var picks []*runRec
	for _, r := range done {
		if key := r.Job.Key(); !seen[key] && len(picks) < w.replay {
			seen[key] = true
			picks = append(picks, r)
		}
	}
	var runS, evs, handoffs, artBytes []float64
	var totalNs, totalEvents float64
	for _, r := range picks {
		var world *exp.World
		start := time.Now()
		out, err := exp.RunJob(r.Job, func(wd *exp.World) error { world = wd; return nil })
		end := time.Now()
		rec.add(span{Name: "exp.run_job", Run: r.ID, Track: "replay", Start: start, End: end})
		if err != nil {
			l.errs = append(l.errs, fmt.Sprintf("replay %s: %v", r.ID, err))
			continue
		}
		if !bytes.Equal(out.Artifacts[exp.ArtifactReport], r.Report) {
			l.errs = append(l.errs, fmt.Sprintf("replay of %s: report differs from the served artifact", r.ID))
		}
		ev := float64(world.Sim.Dispatched())
		runS = append(runS, end.Sub(start).Seconds())
		evs = append(evs, ev)
		handoffs = append(handoffs, float64(world.Sim.Handoffs()))
		n := 0
		for _, a := range out.Artifacts {
			n += len(a)
		}
		artBytes = append(artBytes, float64(n))
		totalNs += float64(end.Sub(start).Nanoseconds())
		totalEvents += ev
	}
	l.add("world.run_s", mean(runS), "s")
	l.add("sim.events_per_run", mean(evs), "count")
	l.add("sim.handoffs_per_run", mean(handoffs), "count")
	l.add("sim.ns_per_event", ratio(totalNs, totalEvents), "ns")
	l.add("world.artifact_bytes_per_run", mean(artBytes), "B")
}
