package main

// model-serve: one closed-loop client against /v1/model. Cold requests
// ask each (network, precision) once; sibling requests ask the same keys
// for other accelerators, memo misses that re-synthesize the workload
// today; hits replay earlier bodies from the memo cache. It separates synthesis (cold, sibling) from the memo and HTTP
// path (hit), and is where sharing synthesized statistics across requests
// must show.

import (
	"encoding/json"
	"math/rand"
	"time"

	"ristretto/internal/atom"
	"ristretto/internal/experiments"
	"ristretto/internal/model"
	"ristretto/internal/server"
)

// modelReq is one /v1/model request; every other field takes the server's
// default.
type modelReq struct {
	Net       string `json:"net"`
	Precision string `json:"precision"`
	Accel     string `json:"accel"`
	Seed      int64  `json:"seed"`
	Scale     int    `json:"scale"`
	Deadline  int64  `json:"deadline_ms"`
}

// modelRequests builds the cold and sibling request lists, each in a
// seed-determined order.
func modelRequests(sz size, set, seed int64) (cold, sibling []modelReq) {
	for _, n := range sz.modelNets {
		for _, p := range sz.modelPrecs {
			q := modelReq{Net: n, Precision: p, Accel: "ristretto", Seed: set, Scale: sz.modelScale, Deadline: 120000}
			cold = append(cold, q)
			for _, a := range sz.modelSiblings {
				q.Accel = a
				sibling = append(sibling, q)
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(cold), func(i, j int) { cold[i], cold[j] = cold[j], cold[i] })
	rng.Shuffle(len(sibling), func(i, j int) { sibling[i], sibling[j] = sibling[j], sibling[i] })
	return cold, sibling
}

func (q modelReq) key() string {
	b, _ := json.Marshal(q) // plain struct of strings and ints
	return string(b)
}

// servedModel is the part of a /v1/model answer the replay recomputes.
type servedModel struct {
	Cycles    int64 `json:"cycles"`
	DRAMBytes int64 `json:"dram_bytes"`
	Energy    struct {
		ComputePJ float64 `json:"compute_pj"`
		OnChipPJ  float64 `json:"onchip_pj"`
		DRAMPJ    float64 `json:"dram_pj"`
		TotalPJ   float64 `json:"total_pj"`
	} `json:"energy"`
}

func runModelServe(r *run) error {
	s, err := startServer(server.Config{})
	if err != nil {
		return err
	}
	defer s.Close()
	c := newClient()
	defer c.hc.CloseIdleConnections()
	cold, sibling := modelRequests(r.sz, r.set, r.seed)
	outputs := outputSet{}
	var serverMS, clientMS []float64

	// call sends one request; the answer must be a non-degraded 200 and, for
	// a key already answered, byte-identical to the first answer.
	call := func(q modelReq, span int) (time.Duration, bool) {
		body, _ := json.Marshal(q)
		status, resp, d, err := c.post(s.url+"/v1/model", body)
		r.tr.end(span)
		if err != nil || status != 200 {
			r.op(false, "/v1/model %s: status %d, %v: %s", q.key(), status, err, resp)
			return d, false
		}
		canon, sms, _, _, err := canonical(resp)
		var m struct {
			Degraded bool `json:"degraded"`
		}
		if err == nil {
			err = json.Unmarshal(resp, &m)
		}
		if err != nil || m.Degraded {
			r.op(false, "/v1/model %s: degraded or malformed answer %s (%v)", q.key(), resp, err)
			return d, false
		}
		serverMS, clientMS = append(serverMS, sms), append(clientMS, ms(d))
		if prev, ok := outputs[q.key()]; ok && string(prev) != string(canon) {
			r.op(false, "/v1/model %s: answered %s, first answer %s", q.key(), canon, prev)
			return d, false
		}
		outputs[q.key()] = canon
		r.op(true, "")
		return d, true
	}

	// The phases are interleaved over the whole run, so each phase's median
	// averages the same stretch of machine time: every key's cold request
	// comes first, then its siblings, and after every request a seeded
	// choice of already-answered bodies is replayed as memo hits.
	root := r.tr.begin("model-serve", 0)
	rng := rand.New(rand.NewSource(r.seed + 1))
	var answered []modelReq
	hits := 0
	for _, k := range cold {
		group := []modelReq{k}
		for _, q := range sibling {
			if q.Net == k.Net && q.Precision == k.Precision {
				group = append(group, q)
			}
		}
		for gi, q := range group {
			d, ok := call(q, r.tr.begin("request /v1/model", root))
			switch {
			case ok && gi == 0:
				r.addFirst(d)
			case ok:
				r.addSibling(d)
			}
			answered = append(answered, q)
			for j := 0; j < r.sz.hitsPerRequest; j++ {
				h := answered[rng.Intn(len(answered))]
				if d, ok := call(h, r.repeatSpan(hits, "request /v1/model hit", root)); ok {
					r.addRepeat(hits, d)
				}
				hits++
			}
		}
	}
	r.tr.end(root)
	r.checkDigest(outputs.bytes())

	if r.tr != nil {
		r.serverLayer(s.reg, serverMS, clientMS, 0, len(serverMS))
		r.modelReplay(cold, outputs)
	}
	return nil
}

// modelReplay re-synthesizes every network the cold phase touched, CNN
// layer by CNN layer, recomputes every served answer with the analytic
// estimators and checks it against what the server sent. It also times a
// representative simulation, the storage layers on the served answers, and
// a fleet sweep at the workload's seed and scale.
func (r *run) modelReplay(cold []modelReq, outputs outputSet) {
	rp := r.tr.begin("replay", 0)
	defer r.tr.end(rp)
	var rows []cnnLayerRow
	for _, q := range cold {
		b := experiments.NewQuickBench(q.Seed, q.Scale)
		n, err := model.ByName(q.Net)
		if err != nil {
			r.problem("replay: %v", err)
			continue
		}
		stats, netRows := r.replayNetwork(rp, b, n, q.Precision, atom.Granularity(2), nil)
		answers, perf := r.replayAnalytic(rp, q.Net+" "+q.Precision, stats, atom.Granularity(2))
		fillAnalyticRows(netRows, perf)
		rows = append(rows, netRows...)
		for accel, want := range answers {
			aq := q
			aq.Accel = accel
			raw, ok := outputs[aq.key()]
			if !ok {
				continue // this accelerator was not asked for
			}
			var got servedModel
			if err := json.Unmarshal(raw, &got); err != nil || got.Cycles != want.Cycles || got.DRAMBytes != want.DRAMBytes ||
				got.Energy.ComputePJ != want.Energy.ComputePJ || got.Energy.OnChipPJ != want.Energy.OnChipPJ ||
				got.Energy.DRAMPJ != want.Energy.OffChipPJ || got.Energy.TotalPJ != want.Energy.Total() {
				r.problem("served %s answered %s, direct layer calls give %+v", aq.key(), raw, want)
			}
		}
	}
	r.setDetail("cnn_layers", rows)
	if len(cold) > 0 {
		// /v1/sim takes uniform precisions only, so the representative
		// simulation runs at 4b whatever the first key's precision.
		r.replaySim(rp, representativeSim(cold[0].Net, "4b", cold[0].Seed, cold[0].Scale), false)
	}
	r.replayStorage(rp, outputPayloads(outputs))
	if len(cold) > 0 {
		r.fleetLayers(rp, cold[0].Seed, cold[0].Scale, fleetNets)
	}
	r.finishSynthesis()
	r.finishSim()
}
