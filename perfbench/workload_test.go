package main

import (
	"reflect"
	"testing"

	"dyflow/internal/exp"
)

// jobsOf lists a run's first n timed jobs per client plus the warm-up.
func jobsOf(g jobGen, n int) []exp.Job {
	var out []exp.Job
	for c := 0; c < clients; c++ {
		out = append(out, g.warmup(c)...)
		for k := 0; k < n; k++ {
			out = append(out, g.timed(c, k))
		}
	}
	return out
}

func TestJobsDeterministicInSeed(t *testing.T) {
	for _, w := range workloads {
		a := jobsOf(jobGen{w: w, seed: 7}, 200)
		b := jobsOf(jobGen{w: w, seed: 7}, 200)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different job lists", w.name)
		}
		if c := jobsOf(jobGen{w: w, seed: 8}, 200); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same jobs", w.name)
		}
		for _, j := range a {
			if j.Scenario != w.scenario || j.Seed < 0 {
				t.Fatalf("%s: job %+v", w.name, j)
			}
			if _, err := j.Normalized(); err != nil {
				t.Fatalf("%s: job %+v: %v", w.name, j, err)
			}
		}
	}
}

func TestSeedSpaces(t *testing.T) {
	for _, w := range workloads {
		g := jobGen{w: w, seed: 3}
		warm := map[int64]bool{}
		for c := 0; c < clients; c++ {
			for _, j := range g.warmup(c) {
				warm[j.Seed] = true
			}
		}
		timed := map[int64]int{}
		for c := 0; c < clients; c++ {
			for k := 0; k < 2000; k++ {
				timed[g.timed(c, k).Seed]++
			}
		}
		if w.seedSpace > 0 {
			// The warm-up executes the whole space; every timed job hits it.
			if len(warm) != w.seedSpace || len(timed) != w.seedSpace {
				t.Errorf("%s: warm-up covers %d seeds, timed jobs use %d; want %d each",
					w.name, len(warm), len(timed), w.seedSpace)
			}
			for s := range timed {
				if !warm[s] {
					t.Errorf("%s: timed seed %d was not warmed", w.name, s)
				}
			}
			continue
		}
		// Distinct: no timed job repeats another or a warm-up job.
		if len(timed) != clients*2000 {
			t.Errorf("%s: %d distinct timed seeds of %d", w.name, len(timed), clients*2000)
		}
		if len(warm) != clients*w.warmup {
			t.Errorf("%s: %d distinct warm-up seeds, want %d", w.name, len(warm), clients*w.warmup)
		}
		for s := range timed {
			if warm[s] {
				t.Errorf("%s: timed seed %d repeats a warm-up job", w.name, s)
			}
		}
	}
}
