package main

// suite: one batch pass of the full paper sweep (experiments.Bench
// AllChecked, all 22 cells) with a checkpoint journal, the ROADMAP's
// headline number. Workload synthesis dominates it. The sibling passes run
// the sweep again on the same Bench, reusing its synthesized statistics,
// so they measure everything but synthesis; the repeat passes resume from
// the journal, which serves every cell from the durable record.

import (
	"bytes"
	"errors"
	"path/filepath"
	"time"

	"ristretto/internal/atom"
	"ristretto/internal/experiments"
)

// suiteSys is the suite's system under test: the Bench and its open
// checkpoint journal.
type suiteSys struct {
	bench   *experiments.Bench
	journal *experiments.Journal
	path    string
}

func setupSuite(r *run) (*suiteSys, error) {
	b := experiments.NewQuickBench(r.set, r.sz.suiteScale)
	b.Nets = r.sz.suiteNets
	b.Workers = 2
	path := filepath.Join(r.tmp, "suite.ckpt")
	j, err := experiments.OpenJournal(path, "perfbench", b.Fingerprint(), false)
	if err != nil {
		return nil, err
	}
	return &suiteSys{bench: b, journal: j, path: path}, nil
}

func probeSuite(r *run) (func() error, error) {
	s, err := setupSuite(r)
	if err != nil {
		return nil, err
	}
	return s.journal.Close, nil
}

// render concatenates results exactly as ristretto-bench -q prints them.
func render(rs []*experiments.Result) []byte {
	var b bytes.Buffer
	for _, res := range rs {
		b.WriteString(res.String())
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// sweepOK reports whether a sweep finished with every cell.
func sweepOK(rs []*experiments.Result, err error) bool {
	if err != nil {
		return false
	}
	for _, res := range rs {
		if res.Err != nil {
			return false
		}
	}
	return true
}

func runSuite(r *run) error {
	sys, err := setupSuite(r)
	if err != nil {
		return err
	}
	b := sys.bench
	root := r.tr.begin("suite", 0)

	sp := r.tr.begin("phase.first", root)
	start := time.Now()
	rs, rep, err := b.AllChecked(experiments.RunOptions{Journal: sys.journal})
	d := time.Since(start)
	r.tr.end(sp)
	cerr := sys.journal.Close()
	r.op(sweepOK(rs, err) && cerr == nil, "first suite pass: %v, journal close: %v", err, cerr)
	golden := render(rs)
	r.checkDigest(golden)
	r.addFirst(d)
	cellMS := map[string]float64{}
	keys := experiments.CellKeys()
	for i, t := range rep.Timings {
		if i < len(keys) {
			cellMS[keys[i]] = t.Millis
		}
	}
	r.setDetail("cell_ms", cellMS)

	// Sibling passes alternate with batches of resume passes, so both
	// medians average the same stretch of machine time.
	perBatch := r.sz.suiteRepeats / r.sz.suiteSiblings
	repeats := 0
	for i := 0; i < r.sz.suiteSiblings; i++ {
		op := r.tr.begin("sibling pass", root)
		start = time.Now()
		rs, _, err = b.AllChecked(experiments.RunOptions{})
		d = time.Since(start)
		r.tr.end(op)
		ok := sweepOK(rs, err) && bytes.Equal(render(rs), golden)
		r.op(ok, "sibling suite pass %d differs from the first (%v)", i, err)
		if ok {
			r.addSibling(d)
		}
		for j := 0; j < perBatch; j++ {
			r.resumePass(sys, repeats, root, golden)
			repeats++
		}
	}
	for ; r.moreRepeats(repeats, r.sz.suiteRepeats); repeats++ {
		r.resumePass(sys, repeats, root, golden)
	}
	r.tr.end(root)

	if r.tr != nil {
		return r.suiteReplay(sys)
	}
	return nil
}

// resumePass is the i-th repeat operation: AllChecked resuming every cell
// from the first pass's journal.
func (r *run) resumePass(sys *suiteSys, i, parent int, golden []byte) {
	b := sys.bench
	op := r.repeatSpan(i, "resume pass", parent)
	start := time.Now()
	j, err := experiments.OpenJournal(sys.path, "perfbench", b.Fingerprint(), true)
	var rs []*experiments.Result
	var rep experiments.RunReport
	if err == nil {
		rs, rep, err = b.AllChecked(experiments.RunOptions{Journal: j})
		err = errors.Join(err, j.Close())
	}
	d := time.Since(start)
	r.tr.end(op)
	cells := len(experiments.CellKeys())
	ok := sweepOK(rs, err) && rep.Resumed == cells && bytes.Equal(render(rs), golden)
	r.op(ok, "resume pass %d: %v, %d of %d cells resumed, output equal to the first pass: %v",
		i, err, rep.Resumed, cells, bytes.Equal(render(rs), golden))
	if ok {
		r.addRepeat(i, d)
	}
}

// suiteReplay times every layer on the suite's own work: synthesis and
// the analytic models of each network at 4b (checked against the Bench's
// cached statistics), a representative cycle simulation, the cell payloads
// through digest, cell cache and journal, and a fleet sweep of the suite's
// cells for its first network.
func (r *run) suiteReplay(sys *suiteSys) error {
	b := sys.bench
	rp := r.tr.begin("replay", 0)
	defer r.tr.end(rp)
	var rows []cnnLayerRow
	for _, n := range b.Networks() {
		want := b.Stats(n, "4b", atom.Granularity(2))
		stats, netRows := r.replayNetwork(rp, b, n, "4b", atom.Granularity(2), want)
		_, perf := r.replayAnalytic(rp, n.Name+" 4b", stats, atom.Granularity(2))
		fillAnalyticRows(netRows, perf)
		rows = append(rows, netRows...)
	}
	r.setDetail("cnn_layers", rows)
	r.replaySim(rp, representativeSim(b.Networks()[0].Name, "4b", b.Seed, b.Scale), false)

	j, err := experiments.OpenJournal(sys.path, "perfbench", b.Fingerprint(), true)
	if err != nil {
		return err
	}
	var items []payload
	for _, key := range experiments.CellKeys() {
		raw, ok := j.Lookup(key)
		if !ok {
			r.problem("journal has no record of cell %s", key)
			continue
		}
		items = append(items, payload{fp: b.CellSpec(key).Fingerprint(), data: raw})
	}
	if err := j.Close(); err != nil {
		return err
	}
	r.replayStorage(rp, items)
	r.fleetLayers(rp, b.Seed, b.Scale, fleetNets)
	r.finishSynthesis()
	r.finishSim()
	return nil
}
