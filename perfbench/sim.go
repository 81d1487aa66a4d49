package main

// sim-serve: one closed-loop client sending distinct /v1/sim requests,
// then replaying them. The cycle simulator dominates each request;
// workload synthesis is a small share, so a synthesis speed-up should
// leave this workload unchanged while a simulator speed-up shows here
// first.

import (
	"encoding/json"
	"math/rand"
	"time"

	"ristretto/internal/server"
)

// simRequests builds the fixed request list of the size: every class at
// simSeeds distinct operand seeds with the first shape, in a
// seed-determined order, and for each of them, in the same order, the
// same operands with every other shape as siblings. Distinct seeds keep
// every request distinct, while a class's requests cost the same.
func simRequests(sz size, set, seed int64) (first, sibling []simReq) {
	for _, c := range sz.simClasses {
		for k := 1; k <= sz.simSeeds; k++ {
			first = append(first, simReq{Net: c.Net, Layer: c.Layer, Precision: c.Precision,
				Gran: 2, Seed: set*100 + int64(k), Scale: sz.simScale, Deadline: 120000})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(first), func(i, j int) { first[i], first[j] = first[j], first[i] })
	for i := range first {
		for j, sh := range simShapes {
			q := first[i]
			q.Tiles, q.Mults, q.Balance = sh.Tiles, sh.Mults, sh.Balance
			if j == 0 {
				first[i] = q
			} else {
				sibling = append(sibling, q)
			}
		}
	}
	return first, sibling
}

// simKey is a request's identity in the output set.
func simKey(q simReq) string {
	b, _ := json.Marshal(q) // plain struct of strings and ints
	return string(b)
}

func runSimServe(r *run) error {
	s, err := startServer(server.Config{})
	if err != nil {
		return err
	}
	defer s.Close()
	c := newClient()
	defer c.hc.CloseIdleConnections()
	first, sibling := simRequests(r.sz, r.set, r.seed)
	outputs := outputSet{}
	var serverMS, clientMS []float64
	batched := 0

	// call sends one request; the answer must be a non-degraded 200 from the
	// cycle simulator and, for a key already answered, byte-identical to the
	// first answer.
	call := func(q simReq, span int) (time.Duration, bool) {
		body, _ := json.Marshal(q)
		status, resp, d, err := c.post(s.url+"/v1/sim", body)
		r.tr.end(span)
		key := simKey(q)
		if err != nil || status != 200 {
			r.op(false, "/v1/sim %s: status %d, %v: %s", key, status, err, resp)
			return d, false
		}
		canon, sms, _, b, err := canonical(resp)
		var m struct {
			Degraded bool   `json:"degraded"`
			Engine   string `json:"engine"`
		}
		if err == nil {
			err = json.Unmarshal(resp, &m)
		}
		if err != nil || m.Degraded || m.Engine != "core-sim" {
			r.op(false, "/v1/sim %s: degraded or malformed answer %s (%v)", key, resp, err)
			return d, false
		}
		serverMS, clientMS = append(serverMS, sms), append(clientMS, ms(d))
		if b {
			batched++
		}
		if prev, ok := outputs[key]; ok && string(prev) != string(canon) {
			r.op(false, "/v1/sim %s: repeat answered %s, first answer %s", key, canon, prev)
			return d, false
		}
		outputs[key] = canon
		r.op(true, "")
		return d, true
	}

	// One client: with two, every request also competes for the second CPU
	// and run-to-run spread doubles on a two-CPU machine, so coalescing is
	// not exercised. The kinds of request are interleaved over the whole
	// run, so each median averages the same stretch of machine time: the
	// w-th operands' first and sibling requests are followed by replays of
	// the (w-1)-th's.
	root := r.tr.begin("sim-serve", 0)
	perFirst := len(sibling) / max(len(first), 1)
	repeats := 0
	var prev []simReq
	for w := 0; w <= len(first); w++ {
		var sent []simReq
		if w < len(first) {
			sent = append([]simReq{first[w]}, sibling[w*perFirst:(w+1)*perFirst]...)
			for i, q := range sent {
				d, ok := call(q, r.tr.begin("request /v1/sim", root))
				switch {
				case ok && i == 0:
					r.addFirst(d)
				case ok:
					r.addSibling(d)
				}
			}
		}
		for _, q := range prev {
			if d, ok := call(q, r.repeatSpan(repeats, "request /v1/sim repeat", root)); ok {
				r.addRepeat(repeats, d)
			}
			repeats++
		}
		prev = sent
	}
	r.tr.end(root)
	r.checkDigest(outputs.bytes())

	if r.tr != nil {
		r.serverLayer(s.reg, serverMS, clientMS, batched, len(serverMS))
		r.simReplay(first, outputs)
	}
	return nil
}

// simReplay replays every first request: the simulated statistics must
// equal the served ones exactly, and the degraded (analytic) rung is timed
// on the same operands.
func (r *run) simReplay(first []simReq, outputs outputSet) {
	rp := r.tr.begin("replay", 0)
	defer r.tr.end(rp)
	exact := map[string]simStats{}
	for _, q := range first {
		got := r.replaySim(rp, q, true)
		exact[simKey(q)] = got
		var want simStats
		if err := json.Unmarshal(outputs[simKey(q)], &want); err != nil || want != got {
			r.problem("replayed simulation of %s gave %+v, served %+v", simKey(q), got, want)
		}
	}
	r.setDetail("sim_exact", exact)
	r.replayStorage(rp, outputPayloads(outputs))
	r.finishSynthesis()
	r.finishSim()
}
