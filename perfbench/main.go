// Command perfbench is the repository benchmark. It runs one TiFL workload
// from a seed for a fixed measuring time and prints every end-to-end
// metric (or, with --trace 1, every per-layer metric) as the last line of
// its output:
//
//	bash perfbench/run.sh --workload sim-sync --seed 1 --seconds 20 --trace 0
//
// A run repeats one episode — set-up, then a fixed amount of training
// work, then correctness checks — until the measuring time is used, after
// one unmeasured warm-up episode, and reports the median over episodes.
// See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// maxProcs caps GOMAXPROCS so a run uses at most two cores on any host.
const maxProcs = 2

// Episode-count limits per run: at least minEpisodes measured episodes of
// each kind, however long they take, and never more than maxEpisodes.
const (
	minEpisodes = populations
	maxEpisodes = 400
)

// populations is how many input sets a run draws from its seed. Episodes
// rotate through them, so a run's medians average over several data
// draws instead of resting on one.
const populations = 4

// episode is one fixed unit of work: set-up, training, checks.
type episode struct {
	setup   time.Duration
	train   time.Duration
	updates int
	roundMs []float64 // wall ms per round (sims) or per tier round (net)
	acc     float64
	simS    float64 // simulated seconds (sims)
	upB     float64 // uplink bytes over the episode
	downB   float64 // downlink bytes over the episode
	cpu     time.Duration
	alloc   uint64
	gc      uint32
	gcPause time.Duration
	hash    uint64 // final global weights (sims)
	input   int    // which of the run's input sets the episode trained on

	attempted, failed int
	bad               []string // failed correctness checks

	layers map[string]float64 // traced episodes only
	cost   []costRow          // traced episodes only
}

func (ep *episode) check(ok bool, format string, args ...any) {
	if !ok {
		ep.bad = append(ep.bad, fmt.Sprintf(format, args...))
	}
}

// costRow is one line of the printed cost model.
type costRow struct {
	name  string
	value float64
}

// meter measures the training phase of an episode from outside: wall
// time, process CPU time, and Go runtime allocation and GC counters.
type meter struct {
	start time.Time
	cpu   time.Duration
	ms    runtime.MemStats
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// startMeter starts measuring a training phase. It collects garbage
// first, so every episode trains from the same heap state and set-up's
// garbage is not charged to training.
func startMeter() *meter {
	runtime.GC()
	m := &meter{}
	runtime.ReadMemStats(&m.ms)
	m.cpu = cpuTime()
	m.start = time.Now()
	return m
}

func (m *meter) stop(ep *episode) {
	ep.train = time.Since(m.start)
	ep.cpu = cpuTime() - m.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ep.alloc = ms.TotalAlloc - m.ms.TotalAlloc
	ep.gc = ms.NumGC - m.ms.NumGC
	ep.gcPause = time.Duration(ms.PauseTotalNs - m.ms.PauseTotalNs)
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// workload runs episodes; a non-nil tracer installs the layer wrappers.
type workload interface {
	episode(tr *tracer) (*episode, error)
}

// workloads maps each workload name to its constructor over one input
// set's seed.
var workloads = map[string]func(seed int64) workload{
	"sim-sync":  func(seed int64) workload { return &simSync{in: simInputs(seed)} },
	"sim-async": func(seed int64) workload { return &simAsync{in: simInputs(seed)} },
	"net-flat":  func(seed int64) workload { return &netRun{in: netInputs(seed)} },
	"net-tree":  func(seed int64) workload { return &netRun{in: netInputs(seed), tree: true} },
}

// inputSets builds the run's input sets from the workload seed: set j is
// generated from seed*populations+j, so distinct seeds never share a set.
func inputSets(mk func(seed int64) workload, seed int64) []workload {
	ws := make([]workload, populations)
	for j := range ws {
		ws[j] = mk(seed*populations + int64(j))
	}
	return ws
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// e2eMetric derives one end-to-end metric from an untraced episode.
type e2eMetric struct {
	name, unit string
	of         func(ep *episode) float64
}

var e2eMetrics = []e2eMetric{
	{"setup_s", "s", func(ep *episode) float64 { return ep.setup.Seconds() }},
	{"updates_per_s", "1/s", func(ep *episode) float64 { return float64(ep.updates) / ep.train.Seconds() }},
	{"tier_round_ms.p50", "ms", func(ep *episode) float64 { return quantile(ep.roundMs, 0.5) }},
	{"tier_round_ms.p90", "ms", func(ep *episode) float64 { return quantile(ep.roundMs, 0.9) }},
	{"final_acc", "fraction", func(ep *episode) float64 { return ep.acc }},
	{"up_B_per_update", "B", func(ep *episode) float64 { return ep.upB / float64(ep.updates) }},
	{"down_B_per_update", "B", func(ep *episode) float64 { return ep.downB / float64(ep.updates) }},
	{"cpu_ms_per_update", "ms", func(ep *episode) float64 { return ep.cpu.Seconds() * 1e3 / float64(ep.updates) }},
	{"alloc_KB_per_update", "KB", func(ep *episode) float64 { return float64(ep.alloc) / 1024 / float64(ep.updates) }},
}

func main() {
	name := flag.String("workload", "", "workload: sim-sync, sim-async, net-flat or net-tree")
	seed := flag.Int64("seed", 1, "workload seed: generates every input of the run")
	seconds := flag.Int("seconds", 20, "measuring time in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from traced episodes, 0 end-to-end metrics")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload <sim-sync|sim-async|net-flat|net-tree> --seed <n> --seconds <s> --trace <0|1>\n")
		os.Exit(2)
	}
	if runtime.GOMAXPROCS(0) > maxProcs {
		runtime.GOMAXPROCS(maxProcs)
	}
	// A run that hangs must still end: give up well inside the harness's
	// per-run limit.
	limit := time.Duration(*seconds)*time.Second + 120*time.Second
	time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", limit)
		os.Exit(1)
	})
	res, err := run(inputSets(mk, *seed), *name, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run measures one workload: a warm-up episode, then episodes until the
// measuring time is used, rotating through the input sets. With trace,
// episodes alternate untraced and traced on the same input set, so the
// tracing overhead is measured in the same run on the same work.
func run(ws []workload, name string, measure time.Duration, trace bool) (*result, error) {
	if _, err := ws[0].episode(nil); err != nil {
		return nil, fmt.Errorf("warm-up episode: %w", err)
	}
	perSet := 1
	if trace {
		perSet = 2
	}
	var plain, traced []*episode
	start := time.Now()
	for i := 0; i < maxEpisodes; i++ {
		// Stop only between full rotations, so every input set weighs the
		// same in the medians.
		enough := len(plain) >= minEpisodes && (!trace || len(traced) >= minEpisodes)
		if enough && i%(perSet*len(ws)) == 0 && time.Since(start) >= measure {
			break
		}
		var tr *tracer
		if trace && i%2 == 1 {
			tr = newTracer()
		}
		set := (i / perSet) % len(ws)
		ep, err := ws[set].episode(tr)
		if err != nil {
			return nil, fmt.Errorf("episode %d: %w", i, err)
		}
		ep.input = set
		if tr != nil {
			traced = append(traced, ep)
		} else {
			plain = append(plain, ep)
		}
	}
	all := append(append([]*episode(nil), plain...), traced...)
	res := &result{Correct: true, Metrics: make(map[string]metric)}
	for _, ep := range all {
		res.Attempted += ep.attempted
		res.Failed += ep.failed
		for _, b := range ep.bad {
			res.Correct = false
			fmt.Printf("CHECK FAILED: %s\n", b)
		}
	}
	// Sims are deterministic: every episode on an input set, traced or
	// not, must end with the same global weights.
	first := make(map[int]uint64)
	for _, ep := range all {
		h, seen := first[ep.input]
		if !seen {
			first[ep.input] = ep.hash
		} else if ep.hash != h {
			res.Correct = false
			fmt.Printf("CHECK FAILED: final weights differ between episodes on input set %d (%016x vs %016x)\n", ep.input, ep.hash, h)
		}
	}
	if !res.Correct {
		res.Failed = res.Attempted
	}
	fmt.Printf("workload %s: %d untraced and %d traced episodes, fail_frac %.4f (%d of %d operations)\n",
		name, len(plain), len(traced), float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	fmt.Printf("  sim_s (simulated training time) %.4g\n", median(collect(plain, func(ep *episode) float64 { return ep.simS })))

	ups := collect(plain, func(ep *episode) float64 { return float64(ep.updates) / ep.train.Seconds() })
	if !trace {
		for _, m := range e2eMetrics {
			xs := collect(plain, m.of)
			res.Metrics[m.name] = metric{median(xs), m.unit}
			fmt.Printf("  %-22s %12.5g %-8s [q1 %.5g, q3 %.5g, n=%d episodes]\n", m.name, median(xs), m.unit, quantile(xs, 0.25), quantile(xs, 0.75), len(xs))
		}
		res.Metrics["peak_rss_MB"] = metric{peakRSSMB(), "MB"}
		fmt.Printf("  %-22s %12.5g MB\n", "peak_rss_MB", peakRSSMB())
		rounds := 0
		for _, ep := range plain {
			rounds += len(ep.roundMs)
		}
		fmt.Printf("  tier_round_ms percentiles per episode; %d round samples in total\n", rounds)
		return res, nil
	}

	names := make([]string, 0, len(traced[0].layers))
	for n := range traced[0].layers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := median(collect(traced, func(ep *episode) float64 { return ep.layers[n] }))
		res.Metrics[n] = metric{v, layerUnits[n]}
	}
	tups := collect(traced, func(ep *episode) float64 { return float64(ep.updates) / ep.train.Seconds() })
	overhead := 1 - median(tups)/median(ups)
	res.Metrics["trace.overhead_frac"] = metric{overhead, "fraction"}
	fmt.Printf("  tracing overhead: updates_per_s %.5g untraced vs %.5g traced (%.2f%%)\n", median(ups), median(tups), 100*overhead)
	for _, n := range names {
		fmt.Printf("  %-30s %12.5g %s\n", n, res.Metrics[n].Value, layerUnits[n])
	}
	printCost(traced)
	return res, nil
}

func collect(eps []*episode, f func(ep *episode) float64) []float64 {
	out := make([]float64, len(eps))
	for i, ep := range eps {
		out[i] = f(ep)
	}
	return out
}

// printCost prints the median cost model over the traced episodes: per
// layer self time, an "other" line for what no layer covers, and each
// row's share of the end-to-end figure in the first row.
func printCost(traced []*episode) {
	rows := traced[0].cost
	if len(rows) == 0 {
		return
	}
	total := median(collect(traced, func(ep *episode) float64 { return ep.cost[0].value }))
	fmt.Println("  cost model (median over traced episodes):")
	for i, r := range rows {
		v := median(collect(traced, func(ep *episode) float64 { return ep.cost[i].value }))
		fmt.Printf("    %-40s %10.4g  %6.1f%%\n", r.name, v, 100*v/total)
	}
}
