package main

import (
	"math"
	"sort"
	"time"
)

// layerUnits lists every per-layer metric with its unit. Each traced
// episode reports all of them; a layer a workload does not exercise reads
// 0. Seconds and counts are totals over one episode's fixed work; byte
// and call figures of the socket layer are per update.
var layerUnits = map[string]string{
	"nn.opt_steps":                "count",
	"nn.opt_step_s":               "s",
	"nn.fwd_bwd_s":                "s",
	"flcore.local_train_s":        "s",
	"flcore.train_phase_s":        "s",
	"flcore.train_parallelism":    "ratio",
	"flcore.round_rest_s":         "s",
	"flcore.commit_rest_s":        "s",
	"core.selects":                "count",
	"core.select_s":               "s",
	"core.tier_evals":             "count",
	"core.tier_eval_s":            "s",
	"tiering.observes":            "count",
	"tiering.observe_s":           "s",
	"tiering.cohort_s":            "s",
	"tiering.retier_s":            "s",
	"tiering.retiers":             "count",
	"tiering.migrations":          "count",
	"compress.up_encodes":         "count",
	"compress.up_encode_s":        "s",
	"compress.up_decode_s":        "s",
	"compress.down_encodes":       "count",
	"compress.down_encode_s":      "s",
	"compress.up_ratio":           "ratio",
	"compress.down_ratio":         "ratio",
	"flnet.worker_train_s":        "s",
	"flnet.round_overhead_ms.p50": "ms",
	"flnet.up_B":                  "B/update",
	"flnet.down_B":                "B/update",
	"flnet.writes":                "1/update",
	"flnet.reads":                 "1/update",
	"flnet.register_s":            "s",
	"flnet.dispatched":            "count",
	"flnet.redials":               "count",
	"flnet.cut_at_end":            "count",
	"flnet.tree.leaf_hop_ms.p50":  "ms",
	"flnet.tree.root_hop_ms.p50":  "ms",
	"flnet.tree.link_up_B":        "B/update",
	"flnet.tree.link_down_B":      "B/update",
	"runtime.gc_cycles":           "count",
	"runtime.gc_pause_ms":         "ms",
	"runtime.alloc_MB":            "MB",
	"tifl.sim_s":                  "s",
	"trace.spans":                 "count",
}

// spanIndex groups an episode's spans by name.
type spanIndex map[string][]span

func (t *tracer) index() spanIndex {
	t.mu.Lock()
	defer t.mu.Unlock()
	ix := make(spanIndex)
	for _, s := range t.spans {
		ix[s.name] = append(ix[s.name], s)
	}
	return ix
}

// before keeps the spans that start before end.
func before(ss []span, end time.Duration) []span {
	var out []span
	for _, s := range ss {
		if s.start < end {
			out = append(out, s)
		}
	}
	return out
}

func total(ss []span) time.Duration {
	var d time.Duration
	for _, s := range ss {
		d += s.dur()
	}
	return d
}

func childTotal(ss []span) (time.Duration, int) {
	var d time.Duration
	n := 0
	for _, s := range ss {
		d += s.childTime
		n += s.children
	}
	return d, n
}

// union is the time covered by at least one of the spans.
func union(ss []span) time.Duration {
	s := append([]span(nil), ss...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var covered time.Duration
	var curStart, curEnd time.Duration
	open := false
	for _, x := range s {
		if open && x.start <= curEnd {
			if x.end > curEnd {
				curEnd = x.end
			}
			continue
		}
		if open {
			covered += curEnd - curStart
		}
		curStart, curEnd, open = x.start, x.end, true
	}
	if open {
		covered += curEnd - curStart
	}
	return covered
}

// unionPerRound sums, over rounds, the time covered by the round's spans.
func unionPerRound(ss []span) time.Duration {
	by := make(map[int64][]span)
	for _, s := range ss {
		by[s.round] = append(by[s.round], s)
	}
	var d time.Duration
	for _, rs := range by {
		d += union(rs)
	}
	return d
}

// byteRatio is dense bytes over encoded bytes across codec spans.
func byteRatio(ss []span) float64 {
	in, out := 0, 0
	for _, s := range ss {
		in += s.in
		out += s.out
	}
	if out == 0 {
		return 0
	}
	return float64(in) / float64(out)
}

// baseLayers fills the layers every workload reports the same way: the
// nn/flcore client-pass split, the codec wrappers and the Go runtime.
func baseLayers(ep *episode, ix spanIndex, clients []span) map[string]float64 {
	l := make(map[string]float64, len(layerUnits))
	for n := range layerUnits {
		l[n] = 0
	}
	local := total(clients)
	steps, nSteps := childTotal(clients)
	l["nn.opt_steps"] = float64(nSteps)
	l["nn.opt_step_s"] = steps.Seconds()
	l["nn.fwd_bwd_s"] = (local - steps).Seconds()
	l["flcore.local_train_s"] = local.Seconds()
	l["compress.up_encodes"] = float64(len(ix[spUpEncode]))
	l["compress.up_encode_s"] = total(ix[spUpEncode]).Seconds()
	l["compress.up_decode_s"] = total(ix[spUpDecode]).Seconds()
	l["compress.down_encodes"] = float64(len(ix[spDownEncode]))
	l["compress.down_encode_s"] = total(ix[spDownEncode]).Seconds()
	l["compress.up_ratio"] = byteRatio(ix[spUpEncode])
	l["compress.down_ratio"] = byteRatio(ix[spDownEncode])
	l["runtime.gc_cycles"] = float64(ep.gc)
	l["runtime.gc_pause_ms"] = ep.gcPause.Seconds() * 1e3
	l["runtime.alloc_MB"] = float64(ep.alloc) / (1 << 20)
	l["tifl.sim_s"] = ep.simS
	n := 0
	for _, ss := range ix {
		n += len(ss)
	}
	l["trace.spans"] = float64(n)
	return l
}

// simLayers derives the per-layer metrics and the wall-time cost model of
// a traced sim episode. start is the training phase's start and last the
// final OnRound/OnCommit callback, both on the tracer's clock: the
// callback gaps tile [start, last], and whatever a gap holds beyond the
// wrapped layers' spans is the engine's own serial work (FedAvg or
// CommitMix, the downlink chain bookkeeping, global evaluation).
func simLayers(ep *episode, tr *tracer, start, last time.Duration, async bool) {
	ix := tr.index()
	clients := ix[spClient]
	l := baseLayers(ep, ix, clients)
	phase := unionPerRound(clients)
	l["flcore.train_phase_s"] = phase.Seconds()
	if phase > 0 {
		l["flcore.train_parallelism"] = total(clients).Seconds() / phase.Seconds()
	}
	l["core.selects"] = float64(len(ix[spSelect]))
	l["core.select_s"] = total(ix[spSelect]).Seconds()
	l["core.tier_evals"] = float64(len(ix[spTierEval]))
	l["core.tier_eval_s"] = total(ix[spTierEval]).Seconds()
	l["tiering.observes"] = float64(len(ix[spObserve]))
	l["tiering.observe_s"] = total(ix[spObserve]).Seconds()
	l["tiering.cohort_s"] = total(ix[spCohort]).Seconds()
	l["tiering.retier_s"] = total(ix[spRetier]).Seconds()

	// within sums the named spans that start before end.
	within := func(end time.Duration, names ...string) time.Duration {
		var d time.Duration
		for _, n := range names {
			d += total(before(ix[n], end))
		}
		return d
	}
	codecs := []string{spUpEncode, spUpDecode, spDownEncode, spDownDecode}
	managerCalls := []string{spObserve, spCohort, spRetier, spAccuracy}
	rest := (last - start) - within(last, spSelect, spAfterRound) - within(last, codecs...) -
		within(last, managerCalls...) - unionPerRound(before(clients, last))
	if async {
		l["flcore.commit_rest_s"] = rest.Seconds()
	} else {
		l["flcore.round_rest_s"] = rest.Seconds()
	}
	ep.layers = l

	local := total(clients).Seconds()
	share := func(x float64) float64 {
		if local == 0 {
			return 0
		}
		return phase.Seconds() * x / local
	}
	wall := ep.train.Seconds()
	all := time.Duration(math.MaxInt64)
	ep.cost = []costRow{
		{"training phase wall s (end to end)", wall},
		{"core.select", within(all, spSelect).Seconds()},
		{"nn.fwd_bwd (wall share of train phase)", share(l["nn.fwd_bwd_s"])},
		{"nn.opt_step (wall share of train phase)", share(l["nn.opt_step_s"])},
		{"compress (codec encode/decode)", within(all, codecs...).Seconds()},
		{"core.after_round (per-tier eval)", within(all, spAfterRound).Seconds()},
		{"tiering (Manager calls)", within(all, managerCalls...).Seconds()},
		{"flcore rest (aggregate, mix, eval)", rest.Seconds()},
	}
	ep.cost = append(ep.cost, costRow{"other (outside every callback gap)", wall - sumRows(ep.cost[1:])})
}

func sumRows(rows []costRow) float64 {
	s := 0.0
	for _, r := range rows {
		s += r.value
	}
	return s
}
