package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestSpansAreTraceEventJSON(t *testing.T) {
	rec := newRecorder()
	if rec.add(span{Name: "http.submit"}) != -1 {
		t.Fatal("a recorder that is off recorded a span")
	}
	rec.on.Store(true)
	t0 := time.Unix(1000, 0)
	root := rec.id()
	rec.add(span{Name: "http.submit", Parent: root, Run: "run-000001", Track: "client-0",
		Start: t0, End: t0.Add(2 * time.Millisecond)})
	claim := rec.add(span{Name: "fleet.claim", Track: "worker-0",
		Start: t0.Add(time.Millisecond), End: t0.Add(1500 * time.Microsecond)})
	rec.setRun(claim, "run-000001")
	rec.root(span{ID: root, Name: "client.run", Run: "run-000001", Track: "client-0",
		Start: t0, End: t0.Add(5 * time.Millisecond)})

	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, rec.snapshot()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   *float64       `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  *int           `json:"pid"`
			Tid  *int           `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("spans file is not JSON: %v\n%s", err, buf.String())
	}
	complete, named := map[string]float64{}, map[float64]string{}
	parents := map[string]float64{}
	tracks := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ts == nil || ev.Pid == nil || ev.Tid == nil || ev.Name == "" {
			t.Fatalf("event %+v lacks name, ts, pid or tid", ev)
		}
		switch ev.Ph {
		case "M":
			tracks++
		case "X":
			if ev.Dur < 0 || *ev.Ts < 0 {
				t.Errorf("%s: negative time (ts %v, dur %v)", ev.Name, *ev.Ts, ev.Dur)
			}
			if ev.Args["run"] != "run-000001" {
				t.Errorf("%s: run %v, want run-000001", ev.Name, ev.Args["run"])
			}
			id := ev.Args["span"].(float64)
			complete[ev.Name] = ev.Dur
			named[id] = ev.Name
			if p, ok := ev.Args["parent"].(float64); ok {
				parents[ev.Name] = p
			}
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	if tracks != 2 || len(complete) != 3 {
		t.Fatalf("%d tracks, %d complete events; want 2 and 3", tracks, len(complete))
	}
	if complete["client.run"] != 5000 || complete["fleet.claim"] != 500 {
		t.Errorf("durations in µs: %v", complete)
	}
	for _, child := range []string{"http.submit", "fleet.claim"} {
		if named[parents[child]] != "client.run" {
			t.Errorf("%s parent is %q, want client.run", child, named[parents[child]])
		}
	}
	if _, ok := parents["client.run"]; ok {
		t.Error("the root span has a parent")
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit %q", doc.DisplayTimeUnit)
	}
}
