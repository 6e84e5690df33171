package exp

import (
	"bytes"
	"encoding/json"
	"errors"
	"runtime"
	"testing"
	"time"

	"dyflow/internal/sim"
)

// TestRunJobQuickstartDeterministic is the foundation the campaign
// service's result cache stands on: equal jobs produce byte-identical
// artifacts.
func TestRunJobQuickstartDeterministic(t *testing.T) {
	job := Job{Scenario: ScenarioQuickstart, Machine: "dt2", Seed: 7}
	a, err := RunJob(job, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunJob(job, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Converged {
		t.Fatalf("quickstart job did not converge: %+v", a.Report)
	}
	for _, name := range []string{ArtifactReport, ArtifactGantt, ArtifactPerfetto, ArtifactMetrics} {
		if len(a.Artifacts[name]) == 0 {
			t.Fatalf("artifact %s empty", name)
		}
		if !bytes.Equal(a.Artifacts[name], b.Artifacts[name]) {
			t.Errorf("artifact %s differs between identical runs", name)
		}
	}
	var rep Report
	if err := json.Unmarshal(a.Artifacts[ArtifactReport], &rep); err != nil {
		t.Fatalf("report artifact is not a Report: %v", err)
	}
	if rep.ID != "Quickstart" || len(rep.Rows) == 0 {
		t.Fatalf("unexpected report: %+v", rep)
	}
}

// TestRunJobReleasesWorld pins that a finished job leaves no goroutines
// behind: the world's parked DES processes are stopped, so a long-lived
// caller (the campaign service's worker pool, a fleet worker) does not
// pin one world per completed run.
func TestRunJobReleasesWorld(t *testing.T) {
	const runs = 20
	runtime.GC()
	base := runtime.NumGoroutine()
	for i := 0; i < runs; i++ {
		if _, err := RunJob(Job{Scenario: ScenarioQuickstart, Machine: "dt2", Seed: int64(i)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Stopped processes finish exiting asynchronously; give them a moment.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after %d jobs, %d before: finished worlds leak",
				runtime.NumGoroutine(), runs, base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestRunJobProgressAndCancel(t *testing.T) {
	// Progress: the hook sees monotonically advancing virtual time.
	var last sim.Time
	calls := 0
	_, err := RunJob(Job{Scenario: ScenarioQuickstart, Seed: 1}, func(w *World) error {
		w.OnProgress = func(now sim.Time) error {
			if now < last {
				t.Errorf("progress went backwards: %v after %v", now, last)
			}
			last = now
			calls++
			return nil
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 || last == 0 {
		t.Fatalf("progress hook never fired (calls=%d last=%v)", calls, last)
	}

	// Cancel: a hook error aborts the run and surfaces as the run error.
	sentinel := errors.New("canceled")
	_, err = RunJob(Job{Scenario: ScenarioQuickstart, Seed: 1}, func(w *World) error {
		w.OnProgress = func(now sim.Time) error {
			if now >= sim.Time(30*time.Second) {
				return sentinel
			}
			return nil
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("canceled run returned %v, want sentinel", err)
	}
}

func TestJobNormalizeAndKey(t *testing.T) {
	j, err := Job{Scenario: " Quickstart ", Machine: "Deepthought2", Seed: 3}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if j.Scenario != ScenarioQuickstart || j.Machine != "dt2" {
		t.Fatalf("normalized to %+v", j)
	}
	if _, err := (Job{Scenario: "nope"}).Normalized(); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if _, err := (Job{Scenario: ScenarioQuickstart, XML: "<dyflow"}).Normalized(); err == nil {
		t.Fatal("malformed XML accepted")
	}

	base := Job{Scenario: ScenarioQuickstart, Machine: "summit", Seed: 1}
	keys := map[string]string{}
	for name, j := range map[string]Job{
		"base":     base,
		"seed":     {Scenario: ScenarioQuickstart, Machine: "summit", Seed: 2},
		"machine":  {Scenario: ScenarioQuickstart, Machine: "dt2", Seed: 1},
		"scenario": {Scenario: ScenarioGrayScott, Machine: "summit", Seed: 1},
		"xml":      {Scenario: ScenarioQuickstart, Machine: "summit", Seed: 1, XML: quickstartXML},
	} {
		k := j.Key()
		for other, ok := range keys {
			if ok == k {
				t.Errorf("jobs %s and %s share key %s", name, other, k)
			}
		}
		keys[name] = k
	}
}
