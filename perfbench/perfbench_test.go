package main

import (
	"testing"
)

// The layer wrappers must be pass-through: a traced episode takes the
// same code paths as an untraced one, so both end with byte-identical
// global weights, the same accuracy, simulated time and byte counts.
func TestTracedMatchesUntraced(t *testing.T) {
	for name, w := range map[string]workload{
		"sim-sync":  &simSync{in: simInputs(3)},
		"sim-async": &simAsync{in: simInputs(3)},
	} {
		t.Run(name, func(t *testing.T) {
			plain, err := w.episode(nil)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := w.episode(newTracer())
			if err != nil {
				t.Fatal(err)
			}
			for _, ep := range []*episode{plain, traced} {
				if len(ep.bad) > 0 {
					t.Fatalf("correctness checks failed: %v", ep.bad)
				}
			}
			if plain.hash != traced.hash {
				t.Errorf("final weights differ: %016x untraced, %016x traced", plain.hash, traced.hash)
			}
			if plain.acc != traced.acc || plain.simS != traced.simS {
				t.Errorf("final_acc/sim_s differ: %v/%v untraced, %v/%v traced", plain.acc, plain.simS, traced.acc, traced.simS)
			}
			if plain.upB != traced.upB || plain.downB != traced.downB || plain.updates != traced.updates {
				t.Errorf("bytes/updates differ: up %v/%v down %v/%v updates %d/%d",
					plain.upB, traced.upB, plain.downB, traced.downB, plain.updates, traced.updates)
			}
			if len(traced.layers) != len(layerUnits) {
				t.Errorf("traced episode reports %d per-layer metrics, want %d", len(traced.layers), len(layerUnits))
			}
			if traced.layers["nn.opt_steps"] == 0 {
				t.Error("traced episode saw no optimizer step")
			}
		})
	}
}

// Socket episodes are not deterministic, but a traced one must pass the
// same correctness checks and report every per-layer metric.
func TestTracedSocketEpisodes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs loopback fleets")
	}
	for _, tree := range []bool{false, true} {
		w := &netRun{in: netInputs(3), tree: tree}
		t.Run(w.name(), func(t *testing.T) {
			ep, err := w.episode(newTracer())
			if err != nil {
				t.Fatal(err)
			}
			if len(ep.bad) > 0 {
				t.Fatalf("correctness checks failed: %v", ep.bad)
			}
			if ep.failed != 0 {
				t.Errorf("%d of %d operations failed", ep.failed, ep.attempted)
			}
			if len(ep.layers) != len(layerUnits) {
				t.Errorf("reports %d per-layer metrics, want %d", len(ep.layers), len(layerUnits))
			}
			if tree && ep.layers["flnet.tree.root_hop_ms.p50"] == 0 {
				t.Error("tree episode timed no root hop")
			}
		})
	}
}
