package main

import (
	"sort"
	"sync"
	"time"

	tifl "repro"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/flcore"
	"repro/internal/flnet"
	"repro/internal/simres"
)

// Fixed work per socket episode, and the runtime's time limits (generous:
// they only bound a failing run).
const (
	netCommits    = 400
	netRoundLimit = 30 * time.Second
	netJoinLimit  = 30 * time.Second
)

// netRun is distributed tiered-async training over loopback TCP: one
// flnet.TieredAsyncAggregator and an in-process worker per client, either
// connected to it directly (flat) or through one flnet.Child aggregator
// per tier (tree). Int8 uplink, lossless delta downlink, frozen tiers. The
// assembly mirrors tifl.System.TrainTieredAsyncNet/Tree, with the worker
// and child hooks wrapped.
type netRun struct {
	in   *inputs
	tree bool
}

func (w *netRun) episode(tr *tracer) (*episode, error) {
	in := w.in
	ep := &episode{}
	t0 := time.Now()
	clients := flcore.BuildClients(in.train, in.test, in.parts, in.cpus, localTestMax, in.seed+3)
	sys, err := tifl.New(clients, tifl.Options{NumTiers: tiers})
	if err != nil {
		return nil, err
	}
	// Workers compress at the wire, so the local engine stays dense.
	eng := flcore.NewEngine(flcore.Config{
		Rounds: 1, ClientsPerRound: 1, LocalEpochs: 1, BatchSize: batchSize, Seed: in.seed,
		Model: in.newModel, Optimizer: optimizer(tr), Latency: simres.DefaultModel,
	}, clients, nil)
	agg, err := flnet.NewTieredAsyncAggregator("127.0.0.1:0", flnet.TieredAsyncConfig{
		GlobalCommits: netCommits, ClientsPerRound: netCohort, TierWeight: core.FedATWeights(),
		RoundTimeout: netRoundLimit, InitialWeights: eng.GlobalWeights(), Seed: in.seed,
		Downlink: &compress.Downlink{},
	})
	if err != nil {
		return nil, err
	}
	defer agg.Close()

	var up compress.Codec = compress.NewInt8(0)
	if tr != nil {
		up = tr.codec(up, true)
	}
	probe := newFleetProbe(tr)
	var fleet sync.WaitGroup
	var errMu sync.Mutex
	var fleetErrs []error
	keep := func(err error) {
		if err != nil {
			errMu.Lock()
			fleetErrs = append(fleetErrs, err)
			errMu.Unlock()
		}
	}
	startWorker := func(addr string, id int) {
		cfg := probe.worker(id, clients[id].NumSamples(), up, func(round int, weights []float64) ([]float64, int, error) {
			u := eng.TrainClient(round, id, weights)
			return u.Weights, u.NumSamples, nil
		})
		fleet.Add(1)
		go func() {
			defer fleet.Done()
			keep(flnet.RunWorker(addr, cfg))
		}()
	}

	joined := time.Now()
	if w.tree {
		for t, tier := range sys.Tiers() {
			ccfg := flnet.ChildConfig{
				ID: t, RootAddr: agg.Addr(), Workers: len(tier.Members),
				WorkerTimeout: netJoinLimit, RoundTimeout: netRoundLimit, Downlink: &compress.Downlink{},
			}
			if tr != nil {
				ccfg.Dial = tr.childDial(t)
			}
			ch, err := flnet.NewChild(ccfg)
			if err != nil {
				return nil, err
			}
			defer ch.Close()
			fleet.Add(1)
			go func() {
				defer fleet.Done()
				keep(ch.Run())
			}()
			for _, id := range tier.Members {
				startWorker(ch.Addr(), id)
			}
		}
		err = agg.WaitForChildren(len(sys.Tiers()), netJoinLimit)
	} else {
		for id := range clients {
			startWorker(agg.Addr(), id)
		}
		err = agg.WaitForWorkers(len(clients), netJoinLimit)
	}
	if err != nil {
		return nil, err
	}
	register := time.Since(joined)
	ep.setup = time.Since(t0)

	m := startMeter()
	var res *flnet.TieredAsyncRunResult
	if w.tree {
		res, err = agg.RunTree()
	} else {
		res, err = agg.Run(core.TierMembers(sys.Tiers()))
	}
	m.stop(ep)
	if err != nil {
		return nil, err
	}
	fleet.Wait() // every worker and child has received Done and returned

	model := eng.GlobalModel()
	model.SetWeightsVector(res.Weights)
	ep.acc, _ = model.Evaluate(in.test.InputTensor(), in.test.Y, evalBatchSize)
	for _, c := range res.Log {
		ep.updates += c.Clients
	}
	ep.upB = float64(probe.conns.writeB.Load())
	ep.downB = float64(probe.conns.readB.Load())
	rounds := probe.tierRounds()
	for _, r := range rounds {
		if r.next {
			ep.roundMs = append(ep.roundMs, r.ms)
		}
	}
	dispatched, failed, cut := accountTrains(probe, res.Log)
	redials := int(probe.redials.Load())
	ep.attempted = dispatched + redials
	ep.failed = failed + redials

	ep.check(len(fleetErrs) == 0, "%s: fleet errors: %v", w.name(), fleetErrs)
	ep.check(len(res.Log) == netCommits, "%s applied %d of %d commits", w.name(), len(res.Log), netCommits)
	for i, c := range res.Log {
		if c.Version != i+1 {
			ep.check(false, "%s: commit %d has version %d", w.name(), i, c.Version)
			break
		}
	}
	ep.check(ep.upB >= float64(res.UplinkBytes), "%s: workers wrote %.0f socket bytes, runtime reports %d uplink payload bytes", w.name(), ep.upB, res.UplinkBytes)
	ep.check(ep.downB >= float64(res.DownlinkBytes), "%s: workers read %.0f socket bytes, runtime reports %d downlink payload bytes", w.name(), ep.downB, res.DownlinkBytes)
	ep.check(ep.updates > 0, "%s: no update was aggregated", w.name())
	ep.check(allFinite(res.Weights), "%s global weights not finite", w.name())
	ep.check(ep.acc >= netAccFloor, "%s final accuracy %.4f below %.2f", w.name(), ep.acc, netAccFloor)
	if tr != nil {
		netLayers(ep, tr, probe, rounds, register, w.tree)
		ep.layers["flnet.dispatched"] = float64(dispatched)
		ep.layers["flnet.redials"] = float64(redials)
		ep.layers["flnet.cut_at_end"] = float64(cut)
	}
	return ep, nil
}

func (w *netRun) name() string {
	if w.tree {
		return "net-tree"
	}
	return "net-flat"
}

// tierRound is one observed socket tier round.
type tierRound struct {
	tierRoundKey
	ms      float64 // to the same tier's next round (when next)
	slowest float64 // longest Train call of the round, ms
	next    bool    // the tier dispatched round+1
}

// tierRounds lists the observed tier rounds, each timed from its first
// Train callback to the first Train callback of the tier's next round.
func (p *fleetProbe) tierRounds() []tierRound {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]tierRound, 0, len(p.rounds))
	for k, o := range p.rounds {
		r := tierRound{tierRoundKey: k, slowest: o.slowest.Seconds() * 1e3}
		if n := p.rounds[tierRoundKey{k.tier, k.round + 1}]; n != nil {
			r.ms, r.next = n.first.Sub(o.first).Seconds()*1e3, true
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].tier != out[j].tier {
			return out[i].tier < out[j].tier
		}
		return out[i].round < out[j].round
	})
	return out
}

// accountTrains classifies every dispatched Train call. A call whose round
// committed but whose update did not make the aggregate failed, as did
// every call of a round the tier gave up on before committing a later one.
// Calls of rounds still in flight after the tier's last commit were cut
// by the commit budget, which ends the run by design: they count as
// attempted, not failed.
func accountTrains(p *fleetProbe, log []flnet.TierCommitStats) (dispatched, failed, cut int) {
	committed := make(map[tierRoundKey]int)
	lastCommit := make(map[int]int)
	for _, c := range log {
		committed[tierRoundKey{c.Tier, c.TierRound}] = c.Clients
		if r, ok := lastCommit[c.Tier]; !ok || c.TierRound > r {
			lastCommit[c.Tier] = c.TierRound
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for k, o := range p.rounds {
		dispatched += o.calls
		if n, ok := committed[k]; ok {
			if o.calls > n {
				failed += o.calls - n
			}
			continue
		}
		if last, ok := lastCommit[k.tier]; ok && k.round < last {
			failed += o.calls
		} else {
			cut += o.calls
		}
	}
	return dispatched, failed, cut
}

// netLayers derives the per-layer metrics and the per-tier-round cost
// model of a traced socket episode. The cost model follows each tier
// round's blocking path: the slowest member's Train plus the runtime's
// overhead (flat), or the child's leaf hop plus the root hop (tree).
func netLayers(ep *episode, tr *tracer, p *fleetProbe, rounds []tierRound, register time.Duration, tree bool) {
	ix := tr.index()
	clients := ix[spClient]
	l := baseLayers(ep, ix, clients)
	phase := union(clients)
	l["flcore.train_phase_s"] = phase.Seconds()
	if phase > 0 {
		l["flcore.train_parallelism"] = total(clients).Seconds() / phase.Seconds()
	}
	workerTrain := total(ix[spWorkerTr])
	l["flnet.worker_train_s"] = workerTrain.Seconds()
	var overhead []float64
	var roundMs, slowMs float64
	n := 0
	for _, r := range rounds {
		if r.next {
			overhead = append(overhead, r.ms-r.slowest)
			roundMs += r.ms
			slowMs += r.slowest
			n++
		}
	}
	if n > 0 {
		roundMs /= float64(n)
		slowMs /= float64(n)
	}
	l["flnet.round_overhead_ms.p50"] = median(overhead)
	u := float64(ep.updates)
	l["flnet.up_B"] = float64(p.conns.writeB.Load()) / u
	l["flnet.down_B"] = float64(p.conns.readB.Load()) / u
	l["flnet.writes"] = float64(p.conns.writes.Load()) / u
	l["flnet.reads"] = float64(p.conns.reads.Load()) / u
	l["flnet.register_s"] = register.Seconds()

	// Shares of the slowest Train: the client pass split into nn's
	// forward/backward and optimizer steps, and the engine's own work
	// around it (replica acquire, weight copies).
	frac := func(x time.Duration) float64 {
		if workerTrain == 0 {
			return 0
		}
		return slowMs * x.Seconds() / workerTrain.Seconds()
	}
	steps, _ := childTotal(clients)
	local := total(clients)
	encMs := 0.0
	if k := len(ix[spUpEncode]); k > 0 {
		encMs = total(ix[spUpEncode]).Seconds() * 1e3 / float64(k)
	}
	ep.cost = []costRow{
		{"tier round mean ms (end to end)", roundMs},
		{"slowest Train: nn.fwd_bwd", frac(local - steps)},
		{"slowest Train: nn.opt_step", frac(steps)},
		{"slowest Train: engine outside the client pass", frac(workerTrain - local)},
	}
	if !tree {
		ep.cost = append(ep.cost,
			costRow{"compress.up_encode (one update)", encMs},
			costRow{"flnet overhead (wire, aggregator, commit)", roundMs - slowMs - encMs})
	} else {
		leaf, root := hopMs(ix[spLeafHop]), hopMs(ix[spRootHop])
		l["flnet.tree.leaf_hop_ms.p50"] = median(leaf)
		l["flnet.tree.root_hop_ms.p50"] = median(root)
		var linkUp, linkDown int64
		tr.mu.Lock()
		for _, lp := range tr.links {
			linkUp += lp.counts.writeB.Load()
			linkDown += lp.counts.readB.Load()
		}
		tr.mu.Unlock()
		l["flnet.tree.link_up_B"] = float64(linkUp) / u
		l["flnet.tree.link_down_B"] = float64(linkDown) / u
		ep.cost = append(ep.cost,
			costRow{"leaf hop beyond the slowest Train (child fan-out/in, encode)", mean(leaf) - slowMs},
			costRow{"root hop (upload, root commit, pull)", mean(root)})
	}
	ep.cost = append(ep.cost, costRow{"other", roundMs - sumRows(ep.cost[1:])})
	ep.layers = l
}

func hopMs(ss []span) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.dur().Seconds() * 1e3
	}
	return out
}
