package main

import (
	"time"

	tifl "repro"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/flcore"
	"repro/internal/nn"
	"repro/internal/simres"
	"repro/internal/tiering"
)

// Fixed work per sim episode.
const (
	syncRounds    = 150 // sim-sync: TiFL rounds
	syncEvalEvery = 10  // global test evaluation every k rounds
	syncInterval  = 5   // Algorithm 2's probability update interval I
	syncTestCap   = 150 // Algorithm 2's per-tier test set cap

	asyncDuration = 100  // sim-async: simulated seconds
	asyncEvals    = 5    // global evaluations over the run
	retierEvery   = 25   // live re-tiering every k commits
	driftRound    = 5    // tier round from which the fast CPU group is slow
	driftFactor   = 0.05 // its CPU share afterwards
)

// Accuracy floors of the correctness checks (10 classes: chance is 0.1).
const (
	simAccFloor = 0.35
	netAccFloor = 0.25
)

func plainOptimizer(round int) nn.Optimizer { return newOptimizer(round) }

// optimizer returns the optimizer factory, wrapped when traced.
func optimizer(tr *tracer) flcore.OptimizerFactory {
	if tr != nil {
		return tr.optimizerFactory(newOptimizer)
	}
	return plainOptimizer
}

// simSync is TiFL's headline path: synchronous rounds under the adaptive
// policy (Algorithm 2), clients trained in parallel, dense updates.
type simSync struct{ in *inputs }

func (w *simSync) episode(tr *tracer) (*episode, error) {
	in := w.in
	ep := &episode{}
	t0 := time.Now()
	clients := flcore.BuildClients(in.train, in.test, in.parts, in.cpus, localTestMax, in.seed+3)
	sys, err := tifl.New(clients, tifl.Options{NumTiers: tiers})
	if err != nil {
		return nil, err
	}
	var stamps []time.Time
	cfg := tifl.Config{
		Rounds: syncRounds, ClientsPerRound: simCohort, LocalEpochs: 1, BatchSize: batchSize,
		Seed: in.seed, Model: in.newModel, Optimizer: optimizer(tr),
		EvalEvery: syncEvalEvery, EvalBatch: evalBatchSize, Parallel: true,
		OnRound: func(flcore.RoundRecord) { stamps = append(stamps, time.Now()) },
	}
	// sys.Train(cfg, test, policy) is exactly Engine(...).Run(Selector(...));
	// it is split here so the selector can be wrapped and the engine's
	// construction counted as set-up.
	eng := sys.Engine(cfg, in.test)
	sel := sys.Selector(tifl.Adaptive(tifl.AdaptiveConfig{Interval: syncInterval, TestPerTier: syncTestCap, Seed: in.seed}), simCohort)
	if tr != nil {
		sel = &tracedSelector{inner: sel.(*core.AdaptiveSelector), tr: tr}
	}
	ep.setup = time.Since(t0)

	m := startMeter()
	res := eng.Run(sel)
	m.stop(ep)

	ep.roundMs = gapsMs(m.start, stamps)
	for _, rec := range res.History {
		ep.updates += len(rec.Selected)
	}
	nparams := len(res.Weights)
	ep.acc, ep.simS = res.FinalAcc, res.TotalTime
	ep.upB = float64(res.UplinkBytes)
	ep.downB = float64(ep.updates * compress.DenseBytes(nparams)) // dense download per update
	ep.hash = weightsHash(res.Weights)
	ep.attempted = ep.updates
	ep.check(len(res.History) == syncRounds, "sim-sync ran %d of %d rounds", len(res.History), syncRounds)
	ep.check(allFinite(res.Weights), "sim-sync global weights not finite")
	ep.check(ep.acc >= simAccFloor, "sim-sync final accuracy %.4f below %.2f", ep.acc, simAccFloor)
	if tr != nil {
		simLayers(ep, tr, m.start.Sub(tr.epoch), lastStamp(tr, m.start, stamps), false)
	}
	return ep, nil
}

// simAsync is FedAT-style tiered-async training with int8 uplink,
// delta+int8 downlink and a live tiering Manager; the fastest CPU group
// drifts slow early on, so the Manager really migrates clients.
type simAsync struct{ in *inputs }

func (w *simAsync) episode(tr *tracer) (*episode, error) {
	in := w.in
	ep := &episode{}
	t0 := time.Now()
	clients := flcore.BuildClients(in.train, in.test, in.parts, in.cpus, localTestMax, in.seed+3)
	drift(clients[:len(clients)/tiers])
	sys, err := tifl.New(clients, tifl.Options{NumTiers: tiers})
	if err != nil {
		return nil, err
	}
	// The Manager tifl.System would build for Options{RetierEvery}, built
	// here so it can be wrapped: the same profile and configuration.
	prof := core.Profile(clients, simres.DefaultModel, core.DefaultProfiler)
	mgr, err := tiering.NewManager(tiering.Config{
		NumTiers: tiers, RetierEvery: retierEvery, ClientsPerRound: simCohort, Seed: in.seed,
	}, prof.Latency)
	if err != nil {
		return nil, err
	}
	up, down := compress.Codec(compress.NewInt8(0)), compress.Codec(compress.NewInt8(0))
	var manager flcore.TierManager = mgr
	if tr != nil {
		up, down = tr.codec(up, true), tr.codec(down, false)
		manager = &tracedManager{inner: mgr, tr: tr}
		tr.round.Store(1)
	}
	var stamps []time.Time
	cfg := tifl.TieredAsyncConfig{
		Duration: asyncDuration, ClientsPerRound: simCohort, EvalInterval: asyncDuration / asyncEvals,
		BatchSize: batchSize, LocalEpochs: 1, Seed: in.seed,
		Model: in.newModel, Optimizer: optimizer(tr), EvalBatch: evalBatchSize,
		Codec: up, Downlink: &compress.Downlink{Codec: down}, Manager: manager,
		OnCommit: func(rec flcore.TierRoundRecord) {
			stamps = append(stamps, time.Now())
			if tr != nil {
				tr.round.Store(int64(rec.Version) + 1)
			}
		},
	}
	ep.setup = time.Since(t0)

	m := startMeter()
	res := sys.TrainTieredAsync(cfg, in.test)
	m.stop(ep)

	ep.roundMs = gapsMs(m.start, stamps)
	for _, rec := range res.TierRounds {
		ep.updates += len(rec.Selected)
	}
	ep.acc, ep.simS = res.FinalAcc, res.TotalTime
	ep.upB, ep.downB = float64(res.UplinkBytes), float64(res.DownlinkBytes)
	ep.hash = weightsHash(res.Weights)
	ep.attempted = ep.updates
	ep.check(len(res.TierRounds) > 0 && ep.updates > 0, "sim-async committed nothing")
	ep.check(res.Migrations > 0, "sim-async: the drifted group never migrated")
	ep.check(allFinite(res.Weights), "sim-async global weights not finite")
	ep.check(ep.acc >= simAccFloor, "sim-async final accuracy %.4f below %.2f", ep.acc, simAccFloor)
	if tr != nil {
		simLayers(ep, tr, m.start.Sub(tr.epoch), lastStamp(tr, m.start, stamps), true)
		ep.layers["tiering.retiers"] = float64(res.Retiers)
		ep.layers["tiering.migrations"] = float64(res.Migrations)
	}
	return ep, nil
}

// drift makes the given clients (the fastest CPU group) collapse to
// driftFactor of their CPU share from tier round driftRound on, latched so
// a migrated client stays slow, as in examples/tiered_async.
func drift(clients []*flcore.Client) {
	for _, c := range clients {
		latched := false
		c.Drift = func(round int) float64 {
			if round >= driftRound {
				latched = true
			}
			if latched {
				return driftFactor
			}
			return 1
		}
	}
}

// gapsMs turns callback times into per-round wall milliseconds, the first
// round measured from the training phase's start.
func gapsMs(start time.Time, stamps []time.Time) []float64 {
	out := make([]float64, len(stamps))
	prev := start
	for i, s := range stamps {
		out[i] = s.Sub(prev).Seconds() * 1e3
		prev = s
	}
	return out
}

// lastStamp is the final round callback on the tracer's clock.
func lastStamp(tr *tracer, start time.Time, stamps []time.Time) time.Duration {
	if len(stamps) == 0 {
		return start.Sub(tr.epoch)
	}
	return stamps[len(stamps)-1].Sub(tr.epoch)
}
