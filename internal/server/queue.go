package server

import (
	"context"
	"errors"
	"hash/fnv"
	"strconv"
	"sync"

	"dyflow/internal/obs"
)

// errQueueFull is returned by push when the queue is at capacity — the
// submission handler turns it into 429 backpressure.
var errQueueFull = errors.New("server: run queue full")

// shardedQueue is the bounded run queue behind every executor: one FIFO
// shard per local worker slot, submissions hashed by tenant to a shard (so
// one tenant's runs execute in submission order), a popper draining its
// home shard first and stealing from the others when it is empty. Local
// slots and fleet claim handlers block in the same pop. The capacity bound
// is global — when the queue is full, submissions are rejected with
// backpressure rather than buffered without limit.
type shardedQueue struct {
	mu     sync.Mutex
	shards [][]string // run IDs, FIFO per shard
	size   int
	max    int
	closed bool
	// wake is closed (and replaced) when a run arrives or the queue closes,
	// waking every blocked pop; waited records that a pop holds the current
	// channel, so pushes nobody waits for allocate nothing.
	wake   chan struct{}
	waited bool
	depth  *obs.GaugeVec // dyflow_server_queue_depth{shard}
}

func newShardedQueue(shards, max int, depth *obs.GaugeVec) *shardedQueue {
	if shards < 1 {
		shards = 1
	}
	return &shardedQueue{shards: make([][]string, shards), max: max, depth: depth, wake: make(chan struct{})}
}

// signalLocked wakes every blocked pop. Caller holds q.mu.
func (q *shardedQueue) signalLocked() {
	if q.waited {
		close(q.wake)
		q.wake = make(chan struct{})
		q.waited = false
	}
}

// shardFor hashes a tenant to its home shard.
func (q *shardedQueue) shardFor(tenant string) int {
	h := fnv.New32a()
	h.Write([]byte(tenant))
	return int(h.Sum32() % uint32(len(q.shards)))
}

func (q *shardedQueue) gauge(shard int) {
	q.depth.With(strconv.Itoa(shard)).Set(float64(len(q.shards[shard])))
}

// push appends a run to the shard, failing with errQueueFull at capacity.
func (q *shardedQueue) push(shard int, id string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return errors.New("server: queue closed")
	}
	if q.size >= q.max {
		return errQueueFull
	}
	q.shards[shard] = append(q.shards[shard], id)
	q.size++
	q.gauge(shard)
	q.signalLocked()
	return nil
}

// requeue reinserts a run at the front of its shard, bypassing the
// capacity bound: the bound is admission backpressure for *new*
// submissions, while a requeued run was already admitted once — restore
// after a crash, a lapsed fleet lease, a rejected result upload. Front
// insertion keeps a requeued run ahead of work submitted after it. The
// queue may transiently exceed max; push keeps rejecting new submissions
// until it drains below the bound again.
func (q *shardedQueue) requeue(shard int, id string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		// Shutting down: the run stays queued in the run table and its
		// run-log record carries it to the next process.
		return
	}
	q.shards[shard] = append([]string{id}, q.shards[shard]...)
	q.size++
	q.gauge(shard)
	q.signalLocked()
}

// pop blocks until a run is available — the home shard first, then
// stealing round-robin from the others — and returns it. ok=false means
// the queue closed, ctx ended (a claim's long-poll deadline or client
// disconnect), or stop closed (nil never fires).
func (q *shardedQueue) pop(ctx context.Context, home int, stop <-chan struct{}) (string, bool) {
	for {
		q.mu.Lock()
		n := len(q.shards)
		for i := 0; i < n; i++ {
			s := (home + i) % n
			if len(q.shards[s]) > 0 {
				id := q.shards[s][0]
				q.shards[s] = q.shards[s][1:]
				q.size--
				q.gauge(s)
				q.mu.Unlock()
				return id, true
			}
		}
		if q.closed {
			q.mu.Unlock()
			return "", false
		}
		wake := q.wake
		q.waited = true
		q.mu.Unlock()
		select {
		case <-wake:
		case <-ctx.Done():
			return "", false
		case <-stop:
			return "", false
		}
	}
}

// remove deletes a queued run (cancellation), reporting whether it was
// still queued.
func (q *shardedQueue) remove(id string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for s := range q.shards {
		for i, have := range q.shards[s] {
			if have == id {
				q.shards[s] = append(q.shards[s][:i], q.shards[s][i+1:]...)
				q.size--
				q.gauge(s)
				return true
			}
		}
	}
	return false
}

// depthTotal returns the number of queued runs.
func (q *shardedQueue) depthTotal() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}

// close wakes every blocked pop and makes pop return ok=false.
func (q *shardedQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.signalLocked()
	q.mu.Unlock()
}
