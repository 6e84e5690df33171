package main

import (
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Spans of one campaign run
// share its run ID; Parent links a span to the span that caused it.
type span struct {
	ID     uint64
	Parent uint64
	Name   string
	Run    string
	Track  string // the timeline row: a client, a fleet worker, replay, restore
	Start  time.Time
	End    time.Time
}

// recorder keeps spans in memory while it is on; they are written out
// once, when the benchmark ends. A recorder that is off records nothing,
// so measured runs pay one atomic load per boundary.
type recorder struct {
	on   atomic.Bool
	next atomic.Uint64

	mu    sync.Mutex
	spans []span
	roots map[string]uint64 // run ID → its client.run span
}

func newRecorder() *recorder { return &recorder{roots: map[string]uint64{}} }

// id reserves a span ID, so a parent can be named before it ends.
func (r *recorder) id() uint64 { return r.next.Add(1) }

// add records a finished span and returns its index in the span list
// (−1 when the recorder is off).
func (r *recorder) add(sp span) int {
	if !r.on.Load() {
		return -1
	}
	if sp.ID == 0 {
		sp.ID = r.id()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, sp)
	return len(r.spans) - 1
}

// root records the client.run span of a run, the parent of every other
// span carrying that run ID.
func (r *recorder) root(sp span) {
	if r.add(sp) < 0 {
		return
	}
	r.mu.Lock()
	r.roots[sp.Run] = sp.ID
	r.mu.Unlock()
}

// setRun attaches a run ID to a recorded span once it becomes known.
func (r *recorder) setRun(idx int, run string) {
	if idx < 0 {
		return
	}
	r.mu.Lock()
	r.spans[idx].Run = run
	r.mu.Unlock()
}

// snapshot returns the spans, parenting run-tagged orphans to their
// run's root span.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]span(nil), r.spans...)
	for i := range out {
		if out[i].Parent == 0 && out[i].Run != "" {
			if root := r.roots[out[i].Run]; root != out[i].ID {
				out[i].Parent = root
			}
		}
	}
	return out
}

// traceEvent is one Chrome trace-event record (the JSON Perfetto and
// chrome://tracing open): "X" complete events and "M" track names.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace renders spans as Chrome trace-event JSON, timestamps in
// microseconds from the earliest span, one thread per track.
func writeChromeTrace(w io.Writer, spans []span) error {
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	var t0 time.Time
	if len(spans) > 0 {
		t0 = spans[0].Start
	}
	tids := map[string]int{}
	events := []traceEvent{}
	for _, sp := range spans {
		tid, ok := tids[sp.Track]
		if !ok {
			tid = len(tids) + 1
			tids[sp.Track] = tid
			events = append(events, traceEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
				Args: map[string]any{"name": sp.Track}})
		}
		args := map[string]any{"span": sp.ID}
		if sp.Run != "" {
			args["run"] = sp.Run
		}
		if sp.Parent != 0 {
			args["parent"] = sp.Parent
		}
		events = append(events, traceEvent{
			Name: sp.Name,
			Cat:  layerOf(sp.Name),
			Ph:   "X",
			Ts:   float64(sp.Start.Sub(t0).Nanoseconds()) / 1e3,
			Dur:  float64(sp.End.Sub(sp.Start).Nanoseconds()) / 1e3,
			Pid:  1,
			Tid:  tid,
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{events, "ms"})
}

// layerOf is a span name's layer: the part before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// rpcSample is one fleet RPC as the worker saw it.
type rpcSample struct {
	call   string
	dur    time.Duration
	status int // 0 when the call failed in transport
}

// fleetTransport times every RPC a fleet worker makes. It wraps the
// worker's http.Client transport, so it sees exactly the calls the worker
// sends, retries included. The worker runs one slot, so every call
// between two claims belongs to the run claimed first.
type fleetTransport struct {
	base  http.RoundTripper
	rec   *recorder
	track string

	mu        sync.Mutex
	cur       string // run of the latest claim
	lastClaim int    // span index of the latest claim, awaiting its run ID
	samples   []rpcSample
	claimRecv map[string]time.Time // run → when the worker received its claim
}

func newFleetTransport(base http.RoundTripper, rec *recorder, track string) *fleetTransport {
	return &fleetTransport{base: base, rec: rec, track: track, lastClaim: -1,
		claimRecv: map[string]time.Time{}}
}

// rpcCall classifies a worker RPC by method and path.
func rpcCall(req *http.Request) string {
	p := req.URL.Path
	switch {
	case req.Method == http.MethodPut && strings.HasPrefix(p, "/v1/blobs/"):
		return "blob_put"
	case req.Method == http.MethodHead && strings.HasPrefix(p, "/v1/blobs/"):
		return "blob_head"
	case strings.HasSuffix(p, "/claim"):
		return "claim"
	case strings.HasSuffix(p, "/heartbeat"):
		return "heartbeat"
	case strings.HasSuffix(p, "/result"):
		return "result"
	case strings.HasSuffix(p, "/metrics"):
		return "metrics"
	case strings.HasSuffix(p, "/register"):
		return "register"
	}
	return "other"
}

func (t *fleetTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.rec.on.Load() {
		return t.base.RoundTrip(req)
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	end := time.Now()
	call := rpcCall(req)
	s := rpcSample{call: call, dur: end.Sub(start)}
	if resp != nil {
		s.status = resp.StatusCode
	}
	t.mu.Lock()
	run := t.cur
	switch call {
	case "claim", "metrics", "register":
		run = "" // a claim's run is set by onClaim; the others serve no run
	}
	t.samples = append(t.samples, s)
	t.mu.Unlock()
	idx := t.rec.add(span{Name: "fleet." + call, Run: run, Track: t.track, Start: start, End: end})
	if call == "claim" {
		t.mu.Lock()
		t.lastClaim = idx
		t.mu.Unlock()
	}
	return resp, err
}

// onClaim is the worker's claim hook: the run it names owns every call
// until the next claim.
func (t *fleetTransport) onClaim(runID string) {
	if !t.rec.on.Load() {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.cur = runID
	t.claimRecv[runID] = now
	idx := t.lastClaim
	t.lastClaim = -1
	t.mu.Unlock()
	t.rec.setRun(idx, runID)
}

// take returns and clears the RPC samples and claim receipt times.
func (t *fleetTransport) take() ([]rpcSample, map[string]time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, c := t.samples, t.claimRecv
	t.samples, t.claimRecv = nil, map[string]time.Time{}
	return s, c
}
