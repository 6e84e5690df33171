package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"dyflow/internal/exp"
	"dyflow/internal/server"
)

// client is one closed-loop campaign client: its own tenant and one
// keep-alive connection, one request at a time.
type client struct {
	idx    int
	tenant string
	base   string
	http   *http.Client
	rec    *recorder
	refs   *reportBook
	done   int // this tenant's runs that ended done, for the query gate
}

func newClient(idx int, addr string, rec *recorder, refs *reportBook) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{
		idx:    idx,
		tenant: tenant(idx),
		base:   "http://" + addr,
		http:   &http.Client{Transport: tr, Timeout: 2 * time.Minute},
		rec:    rec,
		refs:   refs,
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// runRec is one run as the client saw it.
type runRec struct {
	ID     string
	Job    exp.Job
	Sent   time.Time     // POST sent
	Ack    time.Duration // POST sent → 2xx read
	Run    time.Duration // POST sent → terminal event received
	Art    time.Duration // report GET
	Query  time.Duration // filtered history page GET
	Recv   time.Time     // terminal event received
	State  string
	Cached bool
	Events int
	Report []byte   // kept while tracing, for the replay gate
	errs   []string // failed requests and gates
}

func (r *runRec) fail(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// reportBook holds the report of every executed run, so a cache hit can
// be checked byte for byte against the run it came from.
type reportBook struct {
	mu   sync.Mutex
	byID map[string][]byte
}

func newReportBook() *reportBook { return &reportBook{byID: map[string][]byte{}} }

func (b *reportBook) put(id string, rep []byte) {
	b.mu.Lock()
	b.byID[id] = rep
	b.mu.Unlock()
}

func (b *reportBook) get(id string) ([]byte, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	rep, ok := b.byID[id]
	return rep, ok
}

// cycle drives one run through the public HTTP API: submit, tail the
// event stream to the terminal event, fetch the report, page the
// tenant's finished history. Every step's output is checked.
func (c *client) cycle(job exp.Job) *runRec {
	r := &runRec{Job: job}
	root := c.rec.id()
	track := fmt.Sprintf("client-%d", c.idx)
	step := func(name string, start time.Time) {
		c.rec.add(span{Name: name, Parent: root, Run: r.ID, Track: track, Start: start, End: time.Now()})
	}

	r.Sent = time.Now()
	st, err := c.submit(job)
	r.Ack = time.Since(r.Sent)
	if err != nil {
		r.fail("submit: %v", err)
		return r
	}
	r.ID = st.ID
	step("http.submit", r.Sent)

	t := time.Now()
	src, err := c.tail(r)
	r.Run = r.Recv.Sub(r.Sent)
	if err != nil {
		r.fail("events %s: %v", r.ID, err)
		return r
	}
	step("http.events", t)
	if r.State != string(server.StateDone) {
		r.fail("run %s ended %s", r.ID, r.State)
		return r
	}
	c.done++

	t = time.Now()
	rep, err := c.get("/v1/runs/" + r.ID + "/artifacts/" + exp.ArtifactReport)
	r.Art = time.Since(t)
	if err != nil {
		r.fail("report %s: %v", r.ID, err)
		return r
	}
	step("http.artifact", t)
	r.Report = rep
	if err := checkReport(rep); err != nil {
		r.fail("report %s: %v", r.ID, err)
	}
	if r.Cached {
		c.checkCacheHit(r, src)
	} else {
		c.refs.put(r.ID, rep)
	}
	if !c.rec.on.Load() {
		r.Report = nil // only the traced replay compares it again
	}

	t = time.Now()
	page, err := c.get("/v1/runs?tenant=" + c.tenant + "&state=done&limit=100")
	r.Query = time.Since(t)
	if err != nil {
		r.fail("history query: %v", err)
		return r
	}
	step("http.query", t)
	if err := c.checkPage(page); err != nil {
		r.fail("history query: %v", err)
	}
	c.rec.root(span{ID: root, Name: "client.run", Run: r.ID, Track: track, Start: r.Sent, End: time.Now()})
	return r
}

func (c *client) submit(job exp.Job) (server.Status, error) {
	body, err := json.Marshal(server.SubmitRequest{Tenant: c.tenant, Job: job})
	if err != nil {
		return server.Status{}, err
	}
	resp, err := c.http.Post(c.base+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return server.Status{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return server.Status{}, err
	}
	if resp.StatusCode/100 != 2 {
		return server.Status{}, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(data))
	}
	var st server.Status
	if err := json.Unmarshal(data, &st); err != nil {
		return server.Status{}, err
	}
	if st.ID == "" {
		return server.Status{}, fmt.Errorf("acknowledged without a run ID")
	}
	return st, nil
}

// sseEvent is the part of a run event the benchmark reads.
type sseEvent struct {
	Type   string `json:"type"`
	Reason string `json:"reason"`
	Cached bool   `json:"cached"`
}

func terminalType(t string) bool { return t == "done" || t == "failed" || t == "canceled" }

// tail reads the run's SSE stream to its end. It checks that exactly one
// terminal event arrives, last, and that event IDs increase within one
// epoch. It returns the run the result was cached from, if any.
func (c *client) tail(r *runRec) (cachedFrom string, err error) {
	resp, err := c.http.Get(c.base + "/v1/runs/" + r.ID + "/events")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return "", fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(data))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var (
		id, data            string
		epoch, lastSeq      = "", uint64(0)
		terminals, afterEnd int
	)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			id = line[len("id: "):]
		case strings.HasPrefix(line, "data: "):
			data = line[len("data: "):]
		case line == "" && data != "":
			if terminals > 0 {
				afterEnd++
			}
			ep, seqStr, ok := strings.Cut(id, ".")
			seq, perr := strconv.ParseUint(seqStr, 10, 64)
			switch {
			case !ok || perr != nil:
				return "", fmt.Errorf("bad event id %q", id)
			case epoch != "" && ep != epoch:
				return "", fmt.Errorf("event epoch changed mid-stream (%s → %s)", epoch, ep)
			case seq <= lastSeq:
				return "", fmt.Errorf("event id %d after %d: not increasing", seq, lastSeq)
			}
			epoch, lastSeq = ep, seq
			var ev sseEvent
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				return "", fmt.Errorf("event %s: %w", id, err)
			}
			r.Events++
			if ev.Type == "cache_hit" {
				cachedFrom = ev.Reason
			}
			if terminalType(ev.Type) {
				terminals++
				r.Recv = time.Now()
				r.State, r.Cached = ev.Type, ev.Cached
			}
			id, data = "", ""
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	switch {
	case terminals != 1:
		return "", fmt.Errorf("%d terminal events, want exactly 1", terminals)
	case afterEnd > 0:
		return "", fmt.Errorf("%d events after the terminal event", afterEnd)
	}
	return cachedFrom, nil
}

func (c *client) get(path string) ([]byte, error) {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(data))
	}
	return data, nil
}

// checkReport parses a report artifact and requires every row to hold.
func checkReport(data []byte) error {
	var rep exp.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("does not parse: %w", err)
	}
	if len(rep.Rows) == 0 {
		return fmt.Errorf("%q has no rows", rep.ID)
	}
	for _, row := range rep.Rows {
		if !row.Holds {
			return fmt.Errorf("%q row %q differs (paper %s, measured %s)", rep.ID, row.Metric, row.Paper, row.Measured)
		}
	}
	return nil
}

// checkCacheHit requires a cached run's report to equal, byte for byte,
// the report of the run its result came from.
func (c *client) checkCacheHit(r *runRec, src string) {
	if src == "" {
		r.fail("cached run %s names no source run", r.ID)
		return
	}
	want, ok := c.refs.get(src)
	if !ok {
		var err error
		if want, err = c.get("/v1/runs/" + src + "/artifacts/" + exp.ArtifactReport); err != nil {
			r.fail("cache source %s report: %v", src, err)
			return
		}
		c.refs.put(src, want)
	}
	if !bytes.Equal(want, r.Report) {
		r.fail("cached run %s report differs from source run %s", r.ID, src)
	}
}

// checkPage checks the filtered history page: only this tenant's done
// runs, oldest first, as many as it has finished up to the limit.
func (c *client) checkPage(data []byte) error {
	var page server.RunPage
	if err := json.Unmarshal(data, &page); err != nil {
		return err
	}
	if want := min(c.done, 100); len(page.Runs) != want {
		return fmt.Errorf("%d runs listed, want %d", len(page.Runs), want)
	}
	for _, st := range page.Runs {
		if st.Tenant != c.tenant || st.State != server.StateDone {
			return fmt.Errorf("run %s (tenant %s, %s) matches no filter", st.ID, st.Tenant, st.State)
		}
	}
	return nil
}
