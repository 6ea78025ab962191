package main

import (
	"math"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/simres"
)

// inputs is everything a workload receives from the generator: the
// datasets, the per-client partition and the CPU assignment. They are a
// pure function of the workload seed; the system under test sees nothing
// else of the seed except as its own training seed.
type inputs struct {
	seed        int64
	train, test *dataset.Dataset
	parts       [][]int
	cpus        []float64
}

// cifarSpec is the CIFAR-10 stand-in with its noise raised as in the
// experiments harness, so the round budget sits mid-learning-curve.
func cifarSpec() dataset.Spec {
	s := dataset.CIFAR10Like
	s.NoiseStd = 1.8
	return s
}

// Population sizes.
const (
	simClients    = 50   // |K|, the paper's population
	simTrainSize  = 4000 // resource + quantity + class skew over 50 clients
	simTestSize   = 800
	simClasses    = 5 // classes per client (non-IID(5))
	netWorkers    = 20
	netShard      = 20 // samples per worker: the cross-device regime
	netTestSize   = 2000
	localTestMax  = 40 // per-client test shard cap (adaptive tier evaluation)
	hiddenUnits   = 32 // the small MLP every workload trains
	tiers         = 5
	simCohort     = 5 // |C|
	netCohort     = 2 // cohort per tier round over sockets
	batchSize     = 10
	evalBatchSize = 256
)

// simInputs is the population of both simulated workloads: the paper's
// "Combine" scenario — CPU groups 4/2/1/0.5/0.1 (resource skew), group
// data fractions 10–30% (quantity skew) and five classes per client.
func simInputs(seed int64) *inputs {
	spec := cifarSpec()
	train := dataset.Generate(spec, simTrainSize, seed*7919+1)
	rng := rand.New(rand.NewSource(seed*7919 + 2))
	return &inputs{
		seed:  seed,
		train: train,
		test:  dataset.Generate(spec, simTestSize, seed*7919+3),
		parts: dataset.PartitionClassQuantity(train, simClients, simClasses, dataset.QuantityFractions, rng),
		cpus:  simres.AssignGroups(simClients, simres.GroupsCIFAR),
	}
}

// netInputs is the socket workloads' fleet: 20 workers with IID 20-sample
// shards in the five CIFAR CPU groups (4 workers per tier).
func netInputs(seed int64) *inputs {
	spec := cifarSpec()
	train := dataset.Generate(spec, netWorkers*netShard, seed*7919+1)
	rng := rand.New(rand.NewSource(seed*7919 + 2))
	return &inputs{
		seed:  seed,
		train: train,
		test:  dataset.Generate(spec, netTestSize, seed*7919+3),
		parts: dataset.PartitionIID(train.Len(), netWorkers, rng),
		cpus:  simres.AssignGroups(netWorkers, simres.GroupsCIFAR),
	}
}

// newModel builds the small MLP every workload trains.
func (in *inputs) newModel(rng *rand.Rand) *nn.Model {
	return nn.NewMLP(rng, in.train.Dim(), []int{hiddenUnits}, in.train.NumClasses, 0)
}

// newOptimizer is the paper's local optimizer: RMSprop, learning rate 0.01
// decayed by 0.995 per round.
func newOptimizer(round int) *nn.RMSprop {
	return nn.NewRMSprop(0.01*math.Pow(0.995, float64(round)), 0.995)
}
