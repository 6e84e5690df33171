package main

import (
	"fmt"
	"sort"

	"dyflow/internal/exp"
)

// clients is the closed loop's client count: one per core of the 2-core
// machine the benchmark was defined on, each its own tenant with one
// request outstanding at a time.
const clients = 2

// workload is one traffic mix. Every workload drives the same closed
// loop; they differ in the jobs submitted and in who executes them.
type workload struct {
	name     string
	scenario string
	// fleet executes runs on two in-process fleet workers (1 slot each)
	// over the worker RPC plane; otherwise the coordinator's local pool
	// (its default) executes them.
	fleet bool
	// seedSpace > 0 draws every job from that many seeds; 0 makes every
	// job's seed distinct.
	seedSpace int
	// warmup is each client's warm-up run count before timing starts
	// (with a seed space, the warm-up executes the whole space instead).
	warmup int
	// setups is how many times a run boots the stack to take setup_s as
	// a median; the last boot is the one driven.
	setups int
	// replay is how many served jobs the traced run re-executes directly
	// through exp.RunJob.
	replay int
}

var workloads = []workload{
	// Distinct quickstart jobs on 2 fleet workers: the only workload on the
	// fleet RPC plane; the DES world and the coordinator write path share
	// the CPU.
	{
		name:     "fleet-fresh",
		scenario: exp.ScenarioQuickstart, fleet: true,
		warmup: 8, setups: 5, replay: 16,
	},
	// Quickstart jobs over 16 seeds with a warm cache: no simulation runs,
	// so admission, the WAL, the runstore, SSE replay and blob GETs do all
	// the work while the run history grows.
	{
		name:     "cache-replay",
		scenario: exp.ScenarioQuickstart, seedSpace: 16,
		setups: 5, replay: 8,
	},
	// Distinct xgc jobs on the coordinator's local pool: the paper's
	// flagship coupled workflow, dominated by its disk-scan sensor.
	{
		name:     "xgc-scan",
		scenario: exp.ScenarioXGC,
		warmup:   1, setups: 3, replay: 2,
	},
}

// workloadByName looks a workload up.
func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	sort.Strings(names)
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// jobGen derives every job of a run from the workload seed alone, so one
// seed always yields the same inputs.
type jobGen struct {
	w    workload
	seed int64
}

// Stream identifiers keep warm-up, timed and seed-space draws apart.
const (
	streamTimed  = 1
	streamWarmup = 1 << 16
	streamSpace  = 1 << 17
)

// mix is a SplitMix64 hash of (seed, stream, k), folded to a non-negative
// int64 job seed.
func mix(seed int64, stream, k int) int64 {
	z := uint64(seed) + uint64(stream)*0x9e3779b97f4a7c15 + uint64(k)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}

func (g jobGen) job(seed int64) exp.Job {
	return exp.Job{Scenario: g.w.scenario, Machine: "summit", Seed: seed}
}

// space returns the i-th seed of the workload's seed space.
func (g jobGen) space(i int) int64 { return mix(g.seed, streamSpace, i) }

// warmup lists client c's warm-up jobs. With a seed space, the clients
// split it between them so the warm-up executes every seed once.
func (g jobGen) warmup(c int) []exp.Job {
	var out []exp.Job
	if g.w.seedSpace > 0 {
		for i := c; i < g.w.seedSpace; i += clients {
			out = append(out, g.job(g.space(i)))
		}
		return out
	}
	for k := 0; k < g.w.warmup; k++ {
		out = append(out, g.job(mix(g.seed, streamWarmup+c, k)))
	}
	return out
}

// timed returns client c's k-th timed job.
func (g jobGen) timed(c, k int) exp.Job {
	s := mix(g.seed, streamTimed+c, k)
	if g.w.seedSpace > 0 {
		return g.job(g.space(int(uint64(s) % uint64(g.w.seedSpace))))
	}
	return g.job(s)
}

// tenant names client c's tenant.
func tenant(c int) string { return fmt.Sprintf("bench-%d", c) }
