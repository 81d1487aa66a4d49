package fleet

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ristretto/internal/telemetry"
)

// TestStealQueuePeerConcurrent asks for a hedge/audit peer in a loop while
// worker goroutines run next, reassign and complete and another retires a
// worker — the shape of a sweep whose stragglers are hedged. Run under
// -race it pins that peer reads the deques under the queue lock. The sweep
// must still complete every cell exactly once, and peer must never name the
// excluded worker or a retired one.
func TestStealQueuePeerConcurrent(t *testing.T) {
	const workers, n, retiree = 4, 400, 3
	cells := make([]string, n)
	for i := range cells {
		cells[i] = fmt.Sprintf("cell-%03d", i)
	}
	q := newStealQueue(workers, cells, telemetry.NewRegistry())

	var mu sync.Mutex
	completed := map[string]int{}
	retried := map[string]bool{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		if w == retiree {
			continue // its deque is stolen from or spilled on retire
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				cell, _, ok := q.next(w)
				if !ok {
					return
				}
				mu.Lock()
				retry := strings.HasSuffix(cell, "0") && !retried[cell]
				if retry {
					retried[cell] = true
				} else {
					completed[cell]++
				}
				mu.Unlock()
				if retry {
					q.reassign(cell, w) // a retryable failure: back into play once
					continue
				}
				q.complete()
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		q.retire(retiree)
	}()

	stop, peerDone := make(chan struct{}), make(chan struct{})
	var bad atomic.Int64
	go func() {
		defer close(peerDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if v := q.peer(i % workers); v == i%workers {
				bad.Add(1)
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-peerDone

	if b := bad.Load(); b != 0 {
		t.Fatalf("peer named the excluded worker %d times", b)
	}
	for _, c := range cells {
		if completed[c] != 1 {
			t.Fatalf("%s completed %d times, want 1", c, completed[c])
		}
	}
	if left := q.unassigned(); len(left) != 0 {
		t.Fatalf("%d cells left queued: %v", len(left), left)
	}
	if a := q.alive(); a != workers-1 {
		t.Fatalf("alive = %d, want %d", a, workers-1)
	}
	for w := 0; w < workers; w++ {
		if v := q.peer(w); v == w || v == retiree || v < 0 {
			t.Fatalf("peer(%d) = %d after worker %d retired", w, v, retiree)
		}
	}
}
