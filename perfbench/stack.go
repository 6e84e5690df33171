package main

import (
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"dyflow/internal/exp"
	"dyflow/internal/server"
	"dyflow/internal/server/fleet"
)

// stack is one embedded coordinator, with its fleet workers when the
// workload uses them, and the clients connected to it.
type stack struct {
	w       workload
	dir     string
	srv     *server.Server
	workers []*fleet.Worker
	fleetTr []*fleetTransport
	clients []*client
	acked   map[string]string // every acknowledged run → the state its client saw
	timedK  [clients]int      // each client's next timed job index
}

// coordinatorConfig is the coordinator's configuration: its defaults with
// persistence on, fleet-only when the workload runs on the fleet.
func coordinatorConfig(w workload, dir string) server.Config {
	cfg := server.Config{CkptDir: dir}
	if w.fleet {
		cfg.Workers = -1
	}
	return cfg
}

// bootStack starts a coordinator on a fresh directory, joins the fleet
// and connects the clients.
func bootStack(w workload, dir string, seed int64, rec *recorder) (*stack, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	srv, err := server.New(coordinatorConfig(w, dir))
	if err != nil {
		return nil, fmt.Errorf("boot coordinator: %w", err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	st := &stack{w: w, dir: dir, srv: srv, acked: map[string]string{}}
	if w.fleet {
		for i := 0; i < 2; i++ {
			tr := newFleetTransport(&http.Transport{MaxIdleConnsPerHost: 4}, rec, fmt.Sprintf("worker-%d", i))
			wk, err := fleet.JoinFleet(fleet.WorkerOptions{
				Coordinator: addr,
				Name:        fmt.Sprintf("bench-w%d", i),
				Slots:       1,
				BackoffSeed: mix(seed, 1<<18, i) | 1,
				Client:      &http.Client{Transport: tr, Timeout: 30 * time.Second},
				OnClaim:     tr.onClaim,
			})
			if err != nil {
				st.close()
				return nil, fmt.Errorf("join fleet: %w", err)
			}
			st.workers = append(st.workers, wk)
			st.fleetTr = append(st.fleetTr, tr)
		}
	}
	refs := newReportBook()
	for c := 0; c < clients; c++ {
		st.clients = append(st.clients, newClient(c, addr, rec, refs))
	}
	return st, nil
}

// crash stops the workers and clients and hard-closes the coordinator:
// no snapshot, so the next boot recovers from the journal and history.
func (st *stack) crash() {
	var wg sync.WaitGroup
	for _, wk := range st.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wk.Stop()
		}()
	}
	wg.Wait()
	st.workers = nil
	for _, c := range st.clients {
		c.close()
	}
	st.srv.Close()
}

// close crashes the stack and deletes its directory.
func (st *stack) close() {
	st.crash()
	os.RemoveAll(st.dir)
}

// loop runs every client's closed loop concurrently: client c's k-th
// run submits next(c, k) until next reports false. It returns each
// client's records in order.
func (st *stack) loop(next func(c, k int) (exp.Job, bool)) [][]*runRec {
	out := make([][]*runRec, len(st.clients))
	var wg sync.WaitGroup
	for i, c := range st.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; ; k++ {
				job, ok := next(i, k)
				if !ok {
					return
				}
				out[i] = append(out[i], c.cycle(job))
			}
		}()
	}
	wg.Wait()
	for _, recs := range out {
		for _, r := range recs {
			if r.ID != "" {
				st.acked[r.ID] = r.State
			}
		}
	}
	return out
}

// warmup runs the workload's warm-up jobs through the same loop.
func (st *stack) warmup(gen jobGen) []*runRec {
	per := st.loop(func(c, k int) (exp.Job, bool) {
		ws := gen.warmup(c)
		if k >= len(ws) {
			return exp.Job{}, false
		}
		return ws[k], true
	})
	var all []*runRec
	for _, recs := range per {
		all = append(all, recs...)
	}
	return all
}

// drive runs the timed closed loop for d: clients start new runs until
// the deadline and finish the one in flight. Each client continues its
// own timed job sequence across drives.
func (st *stack) drive(gen jobGen, d time.Duration) ([]*runRec, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	per := st.loop(func(c, _ int) (exp.Job, bool) {
		if !time.Now().Before(deadline) {
			return exp.Job{}, false
		}
		k := st.timedK[c]
		st.timedK[c]++
		return gen.timed(c, k), true
	})
	wall := time.Since(start)
	var all []*runRec
	for _, recs := range per {
		all = append(all, recs...)
	}
	return all, wall
}
