package cluster

import (
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/mixedradix"
	"repro/internal/netmodel"
	"repro/internal/slurm"
)

func TestHydraShape(t *testing.T) {
	spec := Hydra(16, 1)
	h := spec.Hierarchy()
	if !reflect.DeepEqual(h.Arities(), []int{16, 2, 2, 8}) {
		t.Errorf("Hydra arities = %v", h.Arities())
	}
	if h.Size() != 512 {
		t.Errorf("Hydra size = %d", h.Size())
	}
	if !reflect.DeepEqual(h.Arities(), HydraHierarchy(16).Arities()) {
		t.Error("Hydra spec and hierarchy helper disagree")
	}
}

func TestHydraRealShape(t *testing.T) {
	h := HydraReal(16, 1).Hierarchy()
	if !reflect.DeepEqual(h.Arities(), []int{16, 2, 16}) {
		t.Errorf("HydraReal arities = %v", h.Arities())
	}
}

func TestLUMIShape(t *testing.T) {
	h := LUMI(16).Hierarchy()
	if !reflect.DeepEqual(h.Arities(), []int{16, 2, 4, 2, 8}) {
		t.Errorf("LUMI arities = %v", h.Arities())
	}
	if h.Size() != 2048 {
		t.Errorf("LUMI size = %d", h.Size())
	}
	node := LUMINode().Hierarchy()
	if !reflect.DeepEqual(node.Arities(), []int{2, 4, 2, 8}) {
		t.Errorf("LUMINode arities = %v", node.Arities())
	}
	if !reflect.DeepEqual(node.Arities(), LUMINodeHierarchy().Arities()) {
		t.Error("LUMINode spec and hierarchy helper disagree")
	}
}

// The documented Slurm default orders must match the --distribution values
// the paper names for them.
func TestDefaultOrdersMatchDistributions(t *testing.T) {
	hydra := HydraHierarchy(4)
	d, ok := slurm.DistributionForOrder(hydra, HydraSlurmDefaultOrder())
	if !ok || d.String() != "block:cyclic" {
		t.Errorf("Hydra default order resolves to %v (ok=%v), want block:cyclic", d, ok)
	}
	lumi := LUMIHierarchy(2)
	d, ok = slurm.DistributionForOrder(lumi, []int{4, 3, 2, 1, 0})
	if !ok || d.String() != "block:block" {
		t.Errorf("LUMI default order resolves to %v (ok=%v), want block:block", d, ok)
	}
}

// Spreading communicators across switches must hit oversubscribed switch
// uplinks: the switch-spread order loses to the node-spread-within-switch
// order under simultaneous traffic.
func TestFatTreeSwitchContention(t *testing.T) {
	// Two switches of four Hydra nodes, each switch's uplink carrying a
	// quarter of its nodes' NIC bandwidth (4:1 oversubscription).
	spec := Hydra(4, 1)
	spec.Levels = append([]netmodel.LevelSpec{{Name: "switch", Arity: 2, UpBandwidth: 12.5e9, Latency: 2.6e-6}}, spec.Levels...)
	cfg := bench.Config{
		Spec:      spec,
		Hierarchy: spec.Hierarchy(),
		CommSize:  16,
		Coll:      bench.Alltoall,
		Iters:     1,
	}
	// Order [0,…]: switch index varies fastest → every communicator
	// crosses the oversubscribed inter-switch core. Order [1,2,3,0,4]:
	// node, socket and group vary before the switch → each 16-rank
	// communicator fills exactly one switch and never crosses the core.
	acrossSwitches := []int{0, 1, 2, 3, 4}
	withinSwitch := []int{1, 2, 3, 0, 4}
	across, err := bench.Measure(cfg, acrossSwitches, 16<<20, true)
	if err != nil {
		t.Fatal(err)
	}
	within, err := bench.Measure(cfg, withinSwitch, 16<<20, true)
	if err != nil {
		t.Fatal(err)
	}
	if across.Bandwidth >= within.Bandwidth {
		t.Errorf("switch-crossing order (%.3g) should lose to switch-local order (%.3g)",
			across.Bandwidth, within.Bandwidth)
	}
}

// Every predefined machine must accept all of its orders: reordering any
// of them is a bijection (guards against arity typos).
func TestAllMachinesReorderable(t *testing.T) {
	specs := map[string][]int{
		"hydra":    Hydra(4, 1).Hierarchy().Arities(),
		"real":     HydraReal(4, 1).Hierarchy().Arities(),
		"lumi":     LUMI(2).Hierarchy().Arities(),
		"luminode": LUMINode().Hierarchy().Arities(),
	}
	for name, ar := range specs {
		if err := mixedradix.CheckHierarchy(ar); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestSpecLatenciesMonotone(t *testing.T) {
	// Crossing latency must not increase when moving inwards (outer
	// crossings are slower) for every machine model.
	for _, c := range []struct {
		name string
		spec netmodel.Spec
	}{
		{"hydra", Hydra(4, 1)},
		{"hydra-real", HydraReal(4, 1)},
		{"lumi", LUMI(2)},
		{"luminode", LUMINode()},
	} {
		for i := 1; i < len(c.spec.Levels); i++ {
			if c.spec.Levels[i].Latency > c.spec.Levels[i-1].Latency {
				t.Errorf("%s: latency increases inwards at level %d", c.name, i)
			}
		}
	}
}
