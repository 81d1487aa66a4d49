package fleet

import (
	"sync"

	"ristretto/internal/telemetry"
)

// stealQueue is the coordinator's work-stealing dispatch structure: one
// deque of cell keys per worker. A worker pops from the front of its own
// deque; an idle worker steals from the back of the longest other deque,
// so the tail of a skewed initial partition migrates to whoever is free.
// Cells in flight on a failing worker are pushed back through reassign,
// and a retired worker's whole deque is drained to the survivors —
// between the two, every cell either completes or is reported unassigned
// when the last worker dies.
//
// All transitions are guarded by one mutex with a condition variable:
// idle workers block in next until a cell arrives (steal, reassign,
// retire spill) or the sweep finishes.
type stealQueue struct {
	mu   sync.Mutex
	cond *sync.Cond

	deques  [][]string
	dead    []bool
	pending int // cells not yet completed or failed

	localPops *telemetry.Counter
	steals    *telemetry.Counter
	reassigns *telemetry.Counter
	retired   *telemetry.Counter
}

// newStealQueue partitions cells over workers in contiguous blocks —
// deliberately naive, because cell costs are skewed and the stealing is
// what balances the load (the fleet tests assert steals actually happen).
func newStealQueue(workers int, cells []string, r *telemetry.Registry) *stealQueue {
	q := &stealQueue{
		deques:    make([][]string, workers),
		dead:      make([]bool, workers),
		pending:   len(cells),
		localPops: r.Counter("fleet.steal.local_pops"),
		steals:    r.Counter("fleet.steal.steals"),
		reassigns: r.Counter("fleet.steal.reassigned"),
		retired:   r.Counter("fleet.steal.workers_retired"),
	}
	q.cond = sync.NewCond(&q.mu)
	per := (len(cells) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * per
		hi := lo + per
		if lo > len(cells) {
			lo = len(cells)
		}
		if hi > len(cells) {
			hi = len(cells)
		}
		q.deques[w] = append([]string(nil), cells[lo:hi]...)
	}
	return q
}

// next returns the next cell for worker w: the front of its own deque, or
// — when that is empty — the back of the longest other deque (a steal).
// It blocks while no cell is available but the sweep is unfinished, and
// returns ok=false once every cell has completed (or w was retired).
func (q *stealQueue) next(w int) (cell string, stolen bool, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.pending == 0 || q.dead[w] {
			return "", false, false
		}
		if len(q.deques[w]) > 0 {
			cell = q.deques[w][0]
			q.deques[w] = q.deques[w][1:]
			q.localPops.Inc()
			return cell, false, true
		}
		if v := q.longest(w); v >= 0 {
			d := q.deques[v]
			cell = d[len(d)-1]
			q.deques[v] = d[:len(d)-1]
			q.steals.Inc()
			return cell, true, true
		}
		// Nothing queued anywhere, but cells are in flight on other
		// workers; one may come back via reassign, or the sweep may end.
		q.cond.Wait()
	}
}

// longest returns the index of the longest non-empty deque other than w,
// or -1 when every other deque is empty.
func (q *stealQueue) longest(w int) int {
	best, bestLen := -1, 0
	for v := range q.deques {
		if v == w {
			continue
		}
		if l := len(q.deques[v]); l > bestLen {
			best, bestLen = v, l
		}
	}
	return best
}

// complete marks one cell finished (success or terminal failure) and
// wakes idle workers when the sweep is done.
func (q *stealQueue) complete() {
	q.mu.Lock()
	q.pending--
	done := q.pending == 0
	q.mu.Unlock()
	if done {
		q.cond.Broadcast()
	}
}

// reassign puts a cell whose attempt failed retryably back into play, at
// the front of the shortest live deque other than from (falling back to
// from's own deque when it is the only live worker left).
func (q *stealQueue) reassign(cell string, from int) {
	q.mu.Lock()
	target := q.shortestAlive(from)
	if target < 0 {
		target = from
	}
	q.deques[target] = append([]string{cell}, q.deques[target]...)
	q.reassigns.Inc()
	q.mu.Unlock()
	q.cond.Broadcast()
}

// peer returns the live worker other than exclude with the shortest
// deque, or -1 when none is left: the target of a hedge or an audit. It
// takes the lock, so it is safe beside the worker loops.
func (q *stealQueue) peer(exclude int) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.shortestAlive(exclude)
}

// shortestAlive returns the live worker (other than `exclude`) with the
// shortest deque, or -1 when none is left. The caller holds q.mu.
func (q *stealQueue) shortestAlive(exclude int) int {
	best, bestLen := -1, int(^uint(0)>>1)
	for v := range q.deques {
		if v == exclude || q.dead[v] {
			continue
		}
		if l := len(q.deques[v]); l < bestLen {
			best, bestLen = v, l
		}
	}
	return best
}

// retire marks worker w dead and spills its remaining deque to the
// survivors. Call after reassigning any in-flight cell.
func (q *stealQueue) retire(w int) {
	q.mu.Lock()
	if !q.dead[w] {
		q.dead[w] = true
		q.retired.Inc()
		spill := q.deques[w]
		q.deques[w] = nil
		for i, cell := range spill {
			if t := q.shortestAlive(w); t >= 0 {
				q.deques[t] = append(q.deques[t], cell)
			} else {
				// No live workers: leave the rest where the unassigned
				// snapshot will find them.
				q.deques[w] = append(q.deques[w], spill[i:]...)
				break
			}
		}
	}
	q.mu.Unlock()
	q.cond.Broadcast()
}

// alive reports how many workers have not been retired.
func (q *stealQueue) alive() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, d := range q.dead {
		if !d {
			n++
		}
	}
	return n
}

// unassigned snapshots every cell still sitting in a deque — non-empty
// only when the sweep ended with all workers retired.
func (q *stealQueue) unassigned() []string {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []string
	for _, d := range q.deques {
		out = append(out, d...)
	}
	return out
}
