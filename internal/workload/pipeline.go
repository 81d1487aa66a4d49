package workload

import (
	"runtime"
	"sync"
	"sync/atomic"

	"ristretto/internal/quant"
)

const (
	// chunkLen is how many draws the weight pipeline hands a worker at
	// once: large enough that the channel operations per chunk vanish,
	// small enough that the chunk buffers stay in cache.
	chunkLen = 1 << 14
	// maxProcs bounds the goroutines, the caller's included, that the
	// weight pipeline and the meter split a layer across, and with them the
	// pipeline's chunk buffers (one more than the goroutines), whatever the
	// core count. Once two workers run beside the producer, the producer
	// walking the stream is the bottleneck.
	maxProcs = 3
)

// procs is how many goroutines, the caller's included, the weight pipeline
// and the meter split n items (chunks or filters) across: one per CPU up
// to maxProcs, never more than the items, and at least one.
func procs(n int) int { return max(1, min(runtime.GOMAXPROCS(0), maxProcs, n)) }

// drawWeights fills codes with quantized weights drawn in stream order and
// returns their magnitude histogram pruned to wDensity (quant.PruneHist)
// with its threshold t and surplus. codes themselves stay unpruned:
// Gen.tieCut finds the index from which ties at t are pruned, and
// quant.PruneCut prunes them at it.
//
// Only the walk through the random stream is serial. The caller's
// goroutine draws the records of chunk values at a time, and whichever
// pipeline goroutine takes a chunk codes it through the weight code table
// into its span of codes and into its own histogram in the generator's
// per-chunk slab, which Gen.tieCut reads back. The codes and the histogram
// do not depend on the goroutine count.
func (g *Gen) drawWeights(codes []int32, bits int, wDensity float64, chunk int) (hist []int, t, surplus int) {
	tab := weightTable(bits)
	nh := tab.q.MaxCode() + 1
	chunks, stride := (len(codes)+chunk-1)/chunk, histStride(nh)
	hists := g.chunkHists(chunks * stride)
	g.pipeline(len(codes), chunk, procs(chunks), func(i int, d *draws) {
		tab.code(codes[i*chunk:], hists[i*stride:][:nh], d)
	})
	hist = make([]int, nh)
	for i := 0; i < chunks; i++ {
		for m, n := range hists[i*stride:][:nh] {
			hist[m] += n
		}
	}
	t, surplus = quant.PruneHist(hist, wDensity)
	return hist, t, surplus
}

// tieCut is quant.TieCut on the codes the last drawWeights call drew in
// chunks of chunk values with nh histogram buckets: the per-chunk
// histograms locate the chunk that holds the surplus-th tie at t, and
// only that chunk is scanned.
func (g *Gen) tieCut(codes []int32, t, surplus, nh, chunk int) int {
	if surplus == 0 {
		return 0
	}
	for i := 0; ; i++ {
		ties := g.hists[i*histStride(nh)+t]
		if surplus > ties {
			surplus -= ties
			continue
		}
		lo := i * chunk
		return lo + quant.TieCut(codes[lo:min(lo+chunk, len(codes))], t, surplus)
	}
}

// pipeline draws n values in stream order on the caller's goroutine, in
// chunks of chunk draw records, and calls work(i, d) for chunk i on one of
// `ways` goroutines: ways-1 workers, and the caller itself whenever every
// chunk buffer is full, so the producer never idles while the workers lag.
// work must write only chunk-owned results, which the caller reads after
// pipeline returns. The chunk buffers, one more than ways, belong to the
// generator. With one way everything runs on the caller's goroutine.
//
// A panic in work stops the producer and is re-raised on the caller once
// every worker has returned, as ristretto's tile fan-out does, so a
// recover envelope around the caller (runner's per-cell one) still sees
// it. No goroutine outlives the call.
func (g *Gen) pipeline(n, chunk, ways int, work func(i int, d *draws)) {
	if ways <= 1 {
		for i := 0; i*chunk < n; i++ {
			work(i, g.next(0, min(chunk, n-i*chunk)))
		}
		return
	}
	type job struct {
		i int
		d *draws
	}
	// Both channels hold every buffer at once, so no send blocks.
	free := make(chan *draws, ways+1)
	jobs := make(chan job, ways+1)
	for b := range ways + 1 {
		free <- g.chunkBuf(b, chunk)
	}
	var (
		wg sync.WaitGroup
		pg panicGuard
	)
	do := func(j job) {
		if !pg.stopped() {
			pg.run(func() { work(j.i, j.d) })
		}
		free <- j.d
	}
	wg.Add(ways - 1)
	for range ways - 1 {
		go func() {
			defer wg.Done()
			for j := range jobs {
				do(j)
			}
		}()
	}
	for i := 0; i*chunk < n && !pg.stopped(); {
		var d *draws
		select {
		case d = <-free:
		default: // every buffer is full or being worked: work one meanwhile
			select {
			case d = <-free:
			case j := <-jobs:
				do(j)
				continue
			}
		}
		d.js = d.js[:min(chunk, n-i*chunk)]
		g.src.normals(d)
		jobs <- job{i, d}
		i++
	}
	close(jobs)
	for j := range jobs {
		do(j)
	}
	wg.Wait()
	pg.reraise()
}

// next fills the generator's chunk buffer b with the records of the next n
// draws and returns it.
func (g *Gen) next(b, n int) *draws {
	d := g.chunkBuf(b, n)
	g.src.normals(d)
	return d
}

// drawCodes draws len(out) values on the caller's goroutine, a chunk at a
// time, and codes them through tab into out and hist.
func (g *Gen) drawCodes(out []int32, hist []int, tab *codeTable) {
	for lo := 0; lo < len(out); lo += chunkLen {
		tab.code(out[lo:], hist, g.next(0, min(chunkLen, len(out)-lo)))
	}
}

// histStride is how far apart the per-chunk histograms of nh buckets lie in
// the slab: a cache line of padding apart, so that goroutines counting
// neighbouring chunks never write one line.
func histStride(nh int) int { return nh + 8 }

// chunkHists returns the generator's per-chunk histogram slab at length n,
// zeroed, growing it when it is shorter.
func (g *Gen) chunkHists(n int) []int {
	if cap(g.hists) < n {
		g.hists = make([]int, n)
	}
	h := g.hists[:n]
	clear(h)
	return h
}

// chunkBuf returns the generator's chunk buffer b with room for n records.
func (g *Gen) chunkBuf(b, n int) *draws {
	d := &g.bufs[b]
	if cap(d.js) < n {
		// slow has room for a sixteenth of the draws, over twice the share
		// that is slow, so it seldom grows.
		d.js, d.slow = make([]int32, n), make([]float64, 0, n/16+1)
	}
	d.js = d.js[:n]
	return d
}

// fanOut runs fn(w) for w in [0, n): fn(0) on the caller's goroutine and
// the rest on goroutines of their own, and returns once all have. It
// re-raises a panic as pipeline does.
func fanOut(n int, fn func(w int)) {
	var (
		wg sync.WaitGroup
		pg panicGuard
	)
	wg.Add(n - 1)
	for w := 1; w < n; w++ {
		go func() {
			defer wg.Done()
			pg.run(func() { fn(w) })
		}()
	}
	pg.run(func() { fn(0) })
	wg.Wait()
	pg.reraise()
}

// panicGuard keeps the first panic of the calls it runs, for the caller to
// re-raise once its workers have stopped.
type panicGuard struct {
	once sync.Once
	hit  atomic.Bool
	val  any
}

// run calls fn and recovers a panic it raises.
func (p *panicGuard) run(fn func()) {
	defer func() {
		if r := recover(); r != nil {
			p.once.Do(func() { p.val = r; p.hit.Store(true) })
		}
	}()
	fn()
}

// stopped reports whether a call has panicked.
func (p *panicGuard) stopped() bool { return p.hit.Load() }

// reraise panics with the first recovered value, if any. Call it after
// every goroutine running calls has returned.
func (p *panicGuard) reraise() {
	if p.hit.Load() {
		panic(p.val)
	}
}
