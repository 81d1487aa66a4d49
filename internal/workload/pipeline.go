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
	// maxProcs bounds the goroutines, the caller's included, that a
	// synthesis run splits its work across, and with them the pipeline's
	// chunk buffers, whatever the core count. Once two workers run beside
	// the caller, the caller walking the stream is the bottleneck.
	maxProcs = 3
	// maxBufs bounds the pipeline's chunk buffers, two per goroutine and
	// two more: enough that the walk seldom waits for one while a worker
	// meters.
	maxBufs = 2*maxProcs + 2
	// pieceLen is about how many weights one meter job reads: about a
	// chunk's coding time, so a worker that meters between chunks keeps no
	// chunk waiting for long.
	pieceLen = 1 << 16
)

// procs is how many goroutines, the caller's included, a synthesis run
// splits n chunks across: one per CPU up to maxProcs, never more than the
// chunks, and at least one.
func procs(n int) int { return max(1, min(runtime.GOMAXPROCS(0), maxProcs, n)) }

// A weightDraw is one layer's weights in a synthesis run: where the coding
// loop writes them, and what the run finds out about them.
//
// The caller sets tab, density, n, and either m, for a stats draw, or
// codes, to have the codes themselves; the run sets everything else. A
// stats draw writes its weights' magnitudes into the run's scratch, one
// byte each.
type weightDraw struct {
	tab     *codeTable
	density float64
	n       int // weights
	m       *meter

	mags   []uint8 // a stats draw's magnitudes, or
	codes  []int32 // the codes
	hists  []int   // per-chunk coding histograms, stride apart
	stride int

	left            atomic.Int32 // chunks not yet coded
	unmetered       atomic.Int32 // meter pieces not yet run
	hist            []int        // the pruned magnitude histogram
	t, surplus, cut int          // the pruning (quant.PruneHist, and the tie cut)
	filters         int          // filters per meter piece
	done            chan struct{}
}

// histLen is the length of one chunk's coding histogram (code).
func (w *weightDraw) histLen() int {
	if w.m != nil {
		return 256
	}
	return w.tab.q.MaxCode() + 1
}

// codeChunk codes chunk i of chunk draws.
func (w *weightDraw) codeChunk(i, chunk int, d *draws) {
	h := w.hists[i*w.stride:][:w.stride-histPad]
	if w.m != nil {
		code(w.tab, w.mags[i*chunk:], h, d)
	} else {
		code(w.tab, w.codes[i*chunk:], h, d)
	}
}

// prune merges the chunk histograms of chunks chunks of chunk draws into
// the layer's, prunes it (quant.PruneHist) and finds the tie cut:
// quant.TieCut on the words, where the per-chunk histograms locate the
// chunk that holds the surplus-th tie at t, and only that chunk is
// scanned.
func (w *weightDraw) prune(chunks, chunk int) {
	w.hist = make([]int, w.tab.q.MaxCode()+1)
	for i := range chunks {
		for m, n := range w.hists[i*w.stride:][:len(w.hist)] {
			w.hist[m] += n
		}
	}
	w.t, w.surplus = quant.PruneHist(w.hist, w.density)
	if w.cut = 0; w.surplus == 0 {
		return
	}
	i, surplus := 0, w.surplus
	for ; surplus > w.hists[i*w.stride+w.t]; i++ {
		surplus -= w.hists[i*w.stride+w.t]
	}
	lo, hi := i*chunk, min((i+1)*chunk, w.n)
	if w.m != nil {
		w.cut = lo + quant.TieCut(w.mags[lo:hi], w.t, surplus)
	} else {
		w.cut = lo + quant.TieCut(w.codes[lo:hi], w.t, surplus)
	}
}

// meterPiece meters piece p of the layer's filters on worker slot worker.
func (w *weightDraw) meterPiece(p, worker int) {
	k0 := p * w.filters
	filters(w.m, w.mags, k0, min(k0+w.filters, w.m.s.Layer.K), worker)
}

// pieces is how many meter jobs the layer's filters split into, and how
// many filters each meters.
func (w *weightDraw) pieces() (n, filters int) {
	if w.m == nil {
		return 0, 0
	}
	l := w.m.s.Layer
	filters = max(1, pieceLen/max(1, l.C*l.KH*l.KW))
	return (l.K + filters - 1) / filters, filters
}

// histPad keeps neighbouring chunks' coding histograms a cache line apart
// in a slot, so that goroutines counting them never write one line.
const histPad = 8

// A slot is one of the generator's two weight scratches, which a synthesis
// run's layers take in turn for their magnitudes and per-chunk histograms.
type slot struct {
	mags  []uint8
	hists []int
}

// grow returns buf at length n, growing it when it is shorter.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// needs is how much of each of a slot's scratches w takes in chunks of
// chunk draws: its magnitudes, for a stats draw (others are given their
// codes), and its per-chunk histograms.
func (w *weightDraw) needs(chunk int) (mags, hists int) {
	if w.m != nil {
		mags = w.n
	}
	return mags, (w.n + chunk - 1) / chunk * (w.histLen() + histPad)
}

// take gives w its share of slot s for chunks of chunk draws, growing the
// slot where it is short, its per-chunk histograms zeroed.
func (w *weightDraw) take(s *slot, chunk int) {
	mags, hists := w.needs(chunk)
	w.mags = grow(&s.mags, mags)
	w.stride = w.histLen() + histPad
	w.hists = grow(&s.hists, hists)
	clear(w.hists)
}

// synthesize draws ws in order through one synthesis pipeline, in chunks
// of chunk draws, calling acts(i) on the caller's goroutine before layer
// i's weights (nil: nothing to draw first).
//
// Only the walk through the random stream is serial. The caller walks
// every layer's draws back to back: acts, then the records of the
// weights, a chunk at a time into one of the generator's chunk buffers.
// Workers code each chunk through the weight code table into its span of
// the words and its own histogram. Whichever codes a layer's last chunk
// merges the histograms, prunes and finds the tie cut, then queues the
// layer's meter as jobs of about pieceLen weights, which the workers run
// when no chunk is waiting, so a layer is metered while the caller walks
// the next. Layers take the two weight slots in turn, and layer i waits
// for layer i-2 to be metered before it writes into their slot. The
// words, histograms and counts do not depend on the goroutine count.
//
// The caller runs queued jobs itself while it waits: for a chunk buffer
// when all are full, or for a slot. With one goroutine everything runs
// on the caller, in stream order. A panic in any job or in acts stops
// the walk and is re-raised on the caller once every worker has
// returned, as ristretto's tile fan-out does, so a recover envelope
// around the caller (runner's per-cell one) still sees it. No goroutine
// outlives the call.
func (g *Gen) synthesize(ws []*weightDraw, chunk int, acts func(i int)) {
	chunks, pieces := 0, 0
	for _, w := range ws {
		n, _ := w.pieces()
		chunks, pieces = chunks+(w.n+chunk-1)/chunk, max(pieces, n)
	}
	s := &synth{
		g: g, chunk: chunk, ways: procs(chunks),
		chunks: make(chan task, maxBufs),
		// Two layers' meter jobs at most are queued at once, as a layer's
		// weights wait for the meter of the layer two before, so no
		// send blocks.
		pieces: make(chan task, 2*pieces),
		free:   make(chan *draws, maxBufs),
		quit:   make(chan struct{}),
		stop:   make(chan struct{}),
	}
	for b := range 2*s.ways + 2 {
		s.free <- g.chunkBuf(b, chunk)
	}
	s.pending.Store(1) // the caller's, until it has queued every chunk
	s.wg.Add(s.ways - 1)
	for w := 1; w < s.ways; w++ {
		go func() {
			defer s.wg.Done()
			s.work(w)
		}()
	}
	s.pg.run(func() {
		for i, w := range ws {
			if acts != nil && !s.pg.stopped() {
				acts(i)
			}
			if i >= 2 {
				s.await(ws[i-2].done)
			}
			if s.pg.stopped() {
				return
			}
			w.take(&g.slots[i%2], chunk)
			s.weights(w)
		}
	})
	s.finish()
	s.work(0)
	s.wg.Wait()
	s.pg.reraise()
}

// A synth is one run of the synthesis pipeline (Gen.synthesize).
type synth struct {
	g     *Gen
	chunk int
	ways  int // goroutines, the caller's included

	chunks chan task     // coding jobs, from the caller
	pieces chan task     // meter jobs, from whoever prunes a layer
	free   chan *draws   // chunk buffers not in a job
	quit   chan struct{} // closed once every job has run
	stop   chan struct{} // closed once a job has panicked
	halt   sync.Once

	pending atomic.Int64 // jobs queued and not yet run, plus the caller's one
	pg      panicGuard
	wg      sync.WaitGroup
}

// A task is one job: chunk i of w's weights, coded from d, or, with d nil,
// piece i of w's meter.
type task struct {
	w *weightDraw
	i int
	d *draws
}

// weights walks w's weights into chunk jobs. With one goroutine it runs
// each job as it is queued, and the layer's meter after its last chunk.
func (s *synth) weights(w *weightDraw) {
	chunks := (w.n + s.chunk - 1) / s.chunk
	w.done = make(chan struct{})
	w.left.Store(int32(chunks))
	if chunks == 0 {
		s.coded(w)
	}
	for i := 0; i < chunks && !s.pg.stopped(); i++ {
		d := s.buffer()
		d.js = d.js[:min(s.chunk, w.n-i*s.chunk)]
		s.g.src.normals(d)
		s.pending.Add(1)
		if s.ways > 1 {
			s.chunks <- task{w, i, d}
		} else {
			s.run(0, task{w, i, d})
		}
	}
	for s.ways == 1 && len(s.pieces) > 0 {
		s.run(0, <-s.pieces)
	}
}

// buffer returns a free chunk buffer, running queued jobs while none is.
func (s *synth) buffer() *draws {
	for {
		select {
		case d := <-s.free:
			return d
		default:
		}
		select {
		case d := <-s.free:
			return d
		case t := <-s.chunks:
			s.run(0, t)
		case t := <-s.pieces:
			s.run(0, t)
		}
	}
}

// await returns once done is closed or a job has panicked, running queued
// jobs meanwhile.
func (s *synth) await(done <-chan struct{}) {
	for {
		select {
		case <-done:
			return
		case <-s.stop:
			return
		case t := <-s.chunks:
			s.run(0, t)
		case t := <-s.pieces:
			s.run(0, t)
		}
	}
}

// work runs jobs on worker slot w, chunks before meter pieces, until every
// job has run.
func (s *synth) work(w int) {
	for {
		select {
		case t := <-s.chunks:
			s.run(w, t)
			continue
		default:
		}
		select {
		case t := <-s.chunks:
			s.run(w, t)
		case t := <-s.pieces:
			s.run(w, t)
		case <-s.quit:
			return
		}
	}
}

// run runs job t on worker slot w, or skips it once a job has panicked.
func (s *synth) run(w int, t task) {
	if !s.pg.stopped() {
		s.pg.run(func() {
			if t.d == nil {
				t.w.meterPiece(t.i, w)
				if t.w.unmetered.Add(-1) == 0 {
					close(t.w.done)
				}
				return
			}
			t.w.codeChunk(t.i, s.chunk, t.d)
			if t.w.left.Add(-1) == 0 {
				s.coded(t.w)
			}
		})
		if s.pg.stopped() {
			s.halt.Do(func() { close(s.stop) })
		}
	}
	if t.d != nil {
		s.free <- t.d
	}
	s.finish()
}

// coded prunes w's weights once all are coded, and queues its meter.
func (s *synth) coded(w *weightDraw) {
	w.prune((w.n+s.chunk-1)/s.chunk, s.chunk)
	var n int
	if n, w.filters = w.pieces(); n == 0 {
		close(w.done)
		return
	}
	w.m.prune(w.hist, w.t, w.cut, s.ways)
	w.unmetered.Store(int32(n))
	s.pending.Add(int64(n))
	for p := range n {
		s.pieces <- task{w: w, i: p}
	}
}

// finish counts one job, or the caller's part, as done.
func (s *synth) finish() {
	if s.pending.Add(-1) == 0 {
		close(s.quit)
	}
}

// drawWeights draws len(codes) weights through the synthesis pipeline in
// chunks of chunk values, coding them into codes, and returns the draw:
// its magnitude histogram pruned to wDensity (quant.PruneHist) with its
// threshold t, surplus and tie cut. codes themselves stay unpruned:
// quant.PruneCut prunes them at the cut.
func (g *Gen) drawWeights(codes []int32, bits int, wDensity float64, chunk int) *weightDraw {
	w := &weightDraw{tab: weightTable(bits), density: wDensity, n: len(codes), codes: codes}
	g.synthesize([]*weightDraw{w}, chunk, nil)
	return w
}

// next fills the generator's own chunk buffer, the one no synthesis job
// holds, with the records of the next n draws and returns it.
func (g *Gen) next(n int) *draws {
	d := g.chunkBuf(len(g.bufs)-1, n)
	g.src.normals(d)
	return d
}

// drawPlane draws len(plane) activations on the caller's goroutine, a
// chunk at a time, coded through tab into plane, and returns their
// magnitude histogram in hist pruned to density, with its threshold and
// surplus (quant.PruneHist).
func drawPlane(g *Gen, plane []int32, tab *codeTable, density float64, hist []int) (t, surplus int) {
	clear(hist)
	for lo := 0; lo < len(plane); lo += chunkLen {
		code(tab, plane[lo:], hist, g.next(min(chunkLen, len(plane)-lo)))
	}
	return quant.PruneHist(hist, density)
}

// chunkBuf returns the generator's chunk buffer b with room for n records.
func (g *Gen) chunkBuf(b, n int) *draws {
	d := &g.bufs[b]
	if cap(d.js) < n {
		// slow and at have room for a sixteenth of the draws, over twice the
		// share that is slow, so they seldom grow.
		d.js, d.slow, d.at = make([]int32, n), make([]float64, 0, n/16+1), make([]int32, 0, n/16+1)
	}
	d.js = d.js[:n]
	return d
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
