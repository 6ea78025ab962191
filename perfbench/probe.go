package main

import (
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/flcore"
	"repro/internal/flnet"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/tiering"
)

// This file measures the layers from outside: every probe wraps a public
// entry point the engines already call (model/optimizer factories,
// Selector, Codec, TierManager, OnRound/OnCommit, flnet WorkerConfig and
// ChildConfig hooks) and forwards to the wrapped value unchanged. No code
// of the system under test is modified.

// span is one timed interval at a wrapper boundary. Spans of one round (a
// sync round, a tiered-async commit gap, or a socket tier round) share the
// round ID; the round itself is the parent. Child spans that happen inside
// a span at high rate (optimizer steps inside one client's local pass) are
// collapsed into the parent as childTime/children instead of being stored
// one by one.
type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	round      int64
	childTime  time.Duration
	children   int
	in, out    int // bytes in and out (codec spans)
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps spans in memory for one episode; they are summarized into
// per-layer metrics when the episode ends. A nil *tracer is the untraced
// mode: wrappers are not installed at all.
type tracer struct {
	epoch time.Time
	round atomic.Int64 // current round/commit ID (sims)

	mu    sync.Mutex
	spans []span
	links []*linkProbe
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record adds a span that started at start and ends now.
func (t *tracer) record(name string, start time.Duration, round int64) {
	t.add(span{name: name, start: start, end: t.now(), round: round})
}

// Span names.
const (
	spClient     = "flcore.client"      // optimizer-factory call to last Step (steps collapsed)
	spSelect     = "core.select"        // Selector.Select
	spAfterRound = "core.after_round"   // RoundObserver.AfterRound
	spTierEval   = "core.tier_eval"     // one eval func call inside AfterRound
	spUpEncode   = "compress.up_encode" // uplink Codec.Encode
	spUpDecode   = "compress.up_decode" // uplink Codec.Decode
	spDownEncode = "compress.down_encode"
	spDownDecode = "compress.down_decode"
	spObserve    = "tiering.observe"
	spCohort     = "tiering.cohort"
	spRetier     = "tiering.retier"
	spAccuracy   = "tiering.observe_accuracy"
	spWorkerTr   = "flnet.worker_train" // WorkerConfig.Train
	spLeafHop    = "flnet.tree.leaf_hop"
	spRootHop    = "flnet.tree.root_hop"
)

// optimizerFactory wraps the RMSprop factory: each returned optimizer
// opens a client span at construction and closes it at ReleaseState, which
// the engine defers to the end of the client's local pass.
func (t *tracer) optimizerFactory(f func(round int) *nn.RMSprop) flcore.OptimizerFactory {
	return func(round int) nn.Optimizer {
		return &tracedOpt{inner: f(round), tr: t, start: t.now(), round: t.round.Load()}
	}
}

// tracedOpt forwards Step and the nn.StatePooled methods the engine probes
// for, so the traced engine takes the pooled-state path like the untraced
// one.
type tracedOpt struct {
	inner  *nn.RMSprop
	tr     *tracer
	start  time.Duration
	last   time.Duration
	round  int64
	steps  int
	stepNs time.Duration
}

func (o *tracedOpt) Step(params, grads []*tensor.Tensor) {
	t0 := o.tr.now()
	o.inner.Step(params, grads)
	o.last = o.tr.now()
	o.stepNs += o.last - t0
	o.steps++
}

func (o *tracedOpt) AttachStatePool(p *tensor.Pool) { o.inner.AttachStatePool(p) }

func (o *tracedOpt) ReleaseState() {
	o.inner.ReleaseState()
	end := o.last
	if o.steps == 0 {
		end = o.start
	}
	o.tr.add(span{name: spClient, start: o.start, end: end, round: o.round, childTime: o.stepNs, children: o.steps})
}

// tracedCodec wraps a Codec; the embedded interface forwards Name, ID,
// EncodedBytes and Lossless.
type tracedCodec struct {
	compress.Codec
	tr               *tracer
	encName, decName string
}

func (t *tracer) codec(c compress.Codec, uplink bool) compress.Codec {
	tc := &tracedCodec{Codec: c, tr: t, encName: spDownEncode, decName: spDownDecode}
	if uplink {
		tc.encName, tc.decName = spUpEncode, spUpDecode
	}
	return tc
}

func (c *tracedCodec) Encode(w []float64) []byte {
	t0 := c.tr.now()
	p := c.Codec.Encode(w)
	c.tr.add(span{name: c.encName, start: t0, end: c.tr.now(), round: c.tr.round.Load(), in: compress.DenseBytes(len(w)), out: len(p)})
	return p
}

func (c *tracedCodec) Decode(payload []byte, n int) ([]float64, error) {
	t0 := c.tr.now()
	w, err := c.Codec.Decode(payload, n)
	c.tr.record(c.decName, t0, c.tr.round.Load())
	return w, err
}

// tracedSelector wraps TiFL's adaptive selector and forwards the one
// optional extension it implements, flcore.RoundObserver (it is no
// LatencyObserver, so the wrapper is not one either). Select opens each
// sync round: it sets the tracer's round ID for the spans that follow.
type tracedSelector struct {
	inner *core.AdaptiveSelector
	tr    *tracer
}

func (s *tracedSelector) Select(r int, rng *rand.Rand) []int {
	s.tr.round.Store(int64(r))
	t0 := s.tr.now()
	sel := s.inner.Select(r, rng)
	s.tr.record(spSelect, t0, int64(r))
	return sel
}

func (s *tracedSelector) AfterRound(r int, eval func(d *dataset.Dataset) float64) {
	t0 := s.tr.now()
	s.inner.AfterRound(r, func(d *dataset.Dataset) float64 {
		e0 := s.tr.now()
		acc := eval(d)
		s.tr.record(spTierEval, e0, int64(r))
		return acc
	})
	s.tr.record(spAfterRound, t0, int64(r))
}

// tracedManager wraps the live tiering Manager and forwards the optional
// interfaces the sim engine probes for: flcore.CommObserver and
// flcore.TierManagerState.
type tracedManager struct {
	inner *tiering.Manager
	tr    *tracer
}

func (m *tracedManager) Tiers() [][]int { return m.inner.Tiers() }

func (m *tracedManager) Observe(client int, seconds float64) {
	t0 := m.tr.now()
	m.inner.Observe(client, seconds)
	m.tr.record(spObserve, t0, m.tr.round.Load())
}

func (m *tracedManager) ObserveRound(client int, seconds, endToEnd float64, bytes int64) {
	t0 := m.tr.now()
	m.inner.ObserveRound(client, seconds, endToEnd, bytes)
	m.tr.record(spObserve, t0, m.tr.round.Load())
}

func (m *tracedManager) ObserveAccuracy(accs []float64) {
	t0 := m.tr.now()
	m.inner.ObserveAccuracy(accs)
	m.tr.record(spAccuracy, t0, m.tr.round.Load())
}

func (m *tracedManager) Cohort(tier, tierRound, want int) []int {
	t0 := m.tr.now()
	c := m.inner.Cohort(tier, tierRound, want)
	m.tr.record(spCohort, t0, m.tr.round.Load())
	return c
}

func (m *tracedManager) MaybeRetier(version int) ([][]int, []flcore.TierMove, bool) {
	t0 := m.tr.now()
	tiers, moves, changed := m.inner.MaybeRetier(version)
	m.tr.record(spRetier, t0, m.tr.round.Load())
	return tiers, moves, changed
}

func (m *tracedManager) SnapshotState() ([]byte, error) { return m.inner.SnapshotState() }
func (m *tracedManager) RestoreState(data []byte) error { return m.inner.RestoreState(data) }

// ---- socket probes ----

// countingConn counts the bytes and calls a connection moves. The worker
// probes are always installed: socket bytes per update are an end-to-end
// metric and feed the byte-accounting correctness check.
type countingConn struct {
	net.Conn
	c *connCounts
}

type connCounts struct {
	readB, writeB, reads, writes atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.readB.Add(int64(n))
	c.c.reads.Add(1)
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.writeB.Add(int64(n))
	c.c.writes.Add(1)
	return n, err
}

func countingDial(c *connCounts) func(addr string, timeout time.Duration) (net.Conn, error) {
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		raw, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		return &countingConn{Conn: raw, c: c}, nil
	}
}

// tierRoundKey names one socket tier round: the worker's tier (from
// OnTierAssign) and the Train round index.
type tierRoundKey struct{ tier, round int }

// tierRoundObs is what the Train probe saw of one tier round.
type tierRoundObs struct {
	first   time.Time     // first Train callback of the round
	calls   int           // Train calls dispatched (cohort members reached)
	slowest time.Duration // longest Train call
}

// fleetProbe observes the in-process worker fleet through WorkerConfig
// hooks: Train (timed per tier round), Dial (socket bytes), OnTierAssign
// (tier of each worker) and OnReconnect (redials).
type fleetProbe struct {
	conns   connCounts
	redials atomic.Int64
	tr      *tracer // nil when untraced

	mu     sync.Mutex
	rounds map[tierRoundKey]*tierRoundObs
}

func newFleetProbe(tr *tracer) *fleetProbe {
	return &fleetProbe{tr: tr, rounds: make(map[tierRoundKey]*tierRoundObs)}
}

// worker builds one worker's config around its training function.
func (p *fleetProbe) worker(id, samples int, codec compress.Codec, train flnet.TrainFunc) flnet.WorkerConfig {
	tier := -1 // written by OnTierAssign and read by Train, both on the worker's goroutine
	return flnet.WorkerConfig{
		ClientID: id, NumSamples: samples, Codec: codec,
		Dial:         countingDial(&p.conns),
		OnTierAssign: func(t, _ int) { tier = t },
		OnReconnect:  func(int) { p.redials.Add(1) },
		Train: func(round int, weights []float64) ([]float64, int, error) {
			start := time.Now()
			var t0 time.Duration
			if p.tr != nil {
				t0 = p.tr.now()
			}
			w, n, err := train(round, weights)
			d := time.Since(start)
			if p.tr != nil {
				p.tr.add(span{name: spWorkerTr, start: t0, end: t0 + d, round: int64(tier)<<32 | int64(round)})
			}
			if round >= 0 {
				p.note(tierRoundKey{tier, round}, start, d)
			}
			return w, n, err
		},
	}
}

func (p *fleetProbe) note(k tierRoundKey, start time.Time, d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	o := p.rounds[k]
	if o == nil {
		o = &tierRoundObs{first: start}
		p.rounds[k] = o
	}
	if start.Before(o.first) {
		o.first = start
	}
	o.calls++
	if d > o.slowest {
		o.slowest = d
	}
}

// linkProbe times a tree child's root link through ChildConfig.Dial. The
// child uploads each tier commit and then blocks reading the root's next
// pull, so the interval from the start of an upload write to the first
// read that returns data is the root hop (wire up, root commit, pull
// encode, wire down); the interval from there to the next upload is the
// leaf hop (the child's own tier round over its leaves). The first cycle
// is registration and tier assignment, not a commit, so it is skipped.
type linkProbe struct {
	tr   *tracer
	tier int

	counts   connCounts
	mu       sync.Mutex
	uploadAt time.Duration // start of the pending upload; -1 when none
	pullAt   time.Duration // arrival of the last pull
	cycles   int           // uploads answered so far
}

func (t *tracer) childDial(tier int) func(addr string, timeout time.Duration) (net.Conn, error) {
	lp := &linkProbe{tr: t, tier: tier, uploadAt: -1}
	t.mu.Lock()
	t.links = append(t.links, lp)
	t.mu.Unlock()
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		raw, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		return &linkConn{Conn: raw, p: lp}, nil
	}
}

type linkConn struct {
	net.Conn
	p *linkProbe
}

func (c *linkConn) Write(b []byte) (int, error) {
	p := c.p
	t0 := p.tr.now()
	n, err := c.Conn.Write(b)
	p.counts.writeB.Add(int64(n))
	p.counts.writes.Add(1)
	p.mu.Lock()
	if p.uploadAt < 0 {
		if p.cycles > 1 {
			p.tr.add(span{name: spLeafHop, start: p.pullAt, end: t0, round: int64(p.tier)})
		}
		p.uploadAt = t0
	}
	p.mu.Unlock()
	return n, err
}

func (c *linkConn) Read(b []byte) (int, error) {
	p := c.p
	n, err := c.Conn.Read(b)
	p.counts.readB.Add(int64(n))
	p.counts.reads.Add(1)
	if n > 0 {
		t1 := p.tr.now()
		p.mu.Lock()
		if p.uploadAt >= 0 {
			p.cycles++
			if p.cycles > 1 {
				p.tr.add(span{name: spRootHop, start: p.uploadAt, end: t1, round: int64(p.tier)})
			}
			p.uploadAt = -1
			p.pullAt = t1
		}
		p.mu.Unlock()
	}
	return n, err
}
