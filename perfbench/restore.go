package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"runtime"
	"time"

	"dyflow/internal/server"
)

// restore measures recovery from a crash: the stack is hard-closed (no
// snapshot), then the coordinator boots again on the same directory
// `boots` times. Each boot is timed from server.New until /healthz
// answers and every acknowledged run is listed over the paginated
// history API with the terminal state its client saw; it then closes
// hard again, so every boot recovers the same crashed state. Like a
// restarted process, each boot starts from a collected heap: the crashed
// coordinator is unreferenced and a GC runs before the clock starts.
func (st *stack) restore(boots int, rec *recorder) (times []float64, errs []string) {
	t := time.Now()
	st.crash()
	rec.add(span{Name: "server.crash", Track: "restore", Start: t, End: time.Now()})
	st.srv, st.clients = nil, nil
	for b := 0; b < boots; b++ {
		runtime.GC()
		d, err := st.bootAndList(rec)
		if err != nil {
			errs = append(errs, fmt.Sprintf("restore boot %d: %v", b, err))
			continue
		}
		times = append(times, d.Seconds())
	}
	return times, errs
}

func (st *stack) bootAndList(rec *recorder) (time.Duration, error) {
	start := time.Now()
	srv, err := server.New(coordinatorConfig(st.w, st.dir))
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	rec.add(span{Name: "server.restore", Track: "restore", Start: start, End: time.Now()})
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}, Timeout: time.Minute}
	defer hc.CloseIdleConnections()
	base := "http://" + addr

	t := time.Now()
	for {
		resp, err := hc.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(t) > 30*time.Second {
			return 0, fmt.Errorf("/healthz never answered: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	rec.add(span{Name: "http.healthz", Track: "restore", Start: t, End: time.Now()})

	t = time.Now()
	listed := map[string]server.RunState{}
	token := ""
	for {
		q := url.Values{"limit": {"1000"}}
		if token != "" {
			q.Set("page_token", token)
		}
		resp, err := hc.Get(base + "/v1/runs?" + q.Encode())
		if err != nil {
			return 0, err
		}
		var page server.RunPage
		err = json.NewDecoder(resp.Body).Decode(&page)
		resp.Body.Close()
		if err != nil {
			return 0, fmt.Errorf("history page: %w", err)
		}
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("history page: %s", resp.Status)
		}
		for _, r := range page.Runs {
			listed[r.ID] = r.State
		}
		if token = page.NextPageToken; token == "" || len(page.Runs) == 0 {
			break
		}
	}
	d := time.Since(start)
	rec.add(span{Name: "http.list_all", Track: "restore", Start: t, End: time.Now()})

	for id, want := range st.acked {
		got, ok := listed[id]
		switch {
		case !ok:
			return d, fmt.Errorf("acknowledged run %s is not listed", id)
		case want != "" && string(got) != want:
			return d, fmt.Errorf("run %s restored as %s, its client saw %s", id, got, want)
		}
	}
	return d, nil
}
