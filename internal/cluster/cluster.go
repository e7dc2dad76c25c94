// Package cluster provides the simulated machine models standing in for
// the paper's two evaluation platforms (§4, "Machine descriptions"):
//
//   - Hydra: 32 nodes × two 16-core Intel Xeon Gold 6130F sockets,
//     Omni-Path 100 Gb/s (one or two NICs per node). The paper describes a
//     node as ⟦2, 2, 8⟧ — each socket faked as two groups of eight cores.
//   - LUMI: HPE Cray EX nodes with two 64-core AMD EPYC 7763 sockets, four
//     NUMA domains per socket, two L3 complexes (CCX) per NUMA, eight cores
//     per CCX, Slingshot-11 200 Gb/s. A node is ⟦2, 4, 2, 8⟧.
//
// Link capacities and latencies are calibrated from public figures for the
// parts (NIC line rate, UPI/xGMI inter-socket links, DDR4 channel counts);
// they aim to reproduce the qualitative shapes of the paper's results —
// who wins, where crossovers fall — not the absolute numbers, which depend
// on the authors' exact software stack.
package cluster

import (
	"repro/internal/netmodel"
	"repro/internal/topology"
)

// HydraNodes is the size of the paper's Hydra cluster.
const HydraNodes = 32

// Hydra returns the Hydra machine model with the given node count and NICs
// per node (Figure 8 contrasts 1 and 2). The hierarchy is
// ⟦nodes, 2, 2, 8⟧: sockets, fake half-socket groups, cores.
func Hydra(nodes, nics int) netmodel.Spec {
	return netmodel.Spec{
		Name: "hydra",
		Levels: []netmodel.LevelSpec{
			// Omni-Path HFI: 100 Gb/s ≈ 12.5 GB/s per NIC; inter-node
			// latency of the paper's fabric is a couple of microseconds.
			{Name: "node", Arity: nodes, UpBandwidth: 12.5e9, BusBandwidth: 38e9, Latency: 1.9e-6},
			// UPI between the two sockets (~20 GB/s effective per direction).
			{Name: "socket", Arity: 2, UpBandwidth: 20e9, BusBandwidth: 55e9, Latency: 0.9e-6, MemBandwidth: 80e9},
			// Fake half-socket group: half the socket's memory system.
			{Name: "group", Arity: 2, UpBandwidth: 30e9, BusBandwidth: 42e9, Latency: 0.5e-6, MemBandwidth: 42e9},
			{Name: "core", Arity: 8, Latency: 0.3e-6},
		},
		NICsPerNode: nics,
		// Xeon Gold 6130F: 2.1 GHz × 16 DP flops/cycle.
		CoreFlops: 33.6e9,
	}
}

// HydraReal returns Hydra without the fake level: ⟦nodes, 2, 16⟧, for the
// fake-level ablation.
func HydraReal(nodes, nics int) netmodel.Spec {
	return netmodel.Spec{
		Name: "hydra-real",
		Levels: []netmodel.LevelSpec{
			{Name: "node", Arity: nodes, UpBandwidth: 12.5e9, BusBandwidth: 38e9, Latency: 1.9e-6},
			{Name: "socket", Arity: 2, UpBandwidth: 20e9, BusBandwidth: 55e9, Latency: 0.9e-6, MemBandwidth: 80e9},
			{Name: "core", Arity: 16, Latency: 0.4e-6},
		},
		NICsPerNode: nics,
		CoreFlops:   33.6e9,
	}
}

// LUMI returns the LUMI machine model with the given node count:
// ⟦nodes, 2, 4, 2, 8⟧.
func LUMI(nodes int) netmodel.Spec {
	return netmodel.Spec{
		Name: "lumi",
		Levels: []netmodel.LevelSpec{
			// Slingshot-11: 200 Gb/s ≈ 25 GB/s.
			{Name: "node", Arity: nodes, UpBandwidth: 25e9, BusBandwidth: 70e9, Latency: 1.8e-6},
			// xGMI between the two EPYC sockets.
			{Name: "socket", Arity: 2, UpBandwidth: 36e9, BusBandwidth: 110e9, Latency: 0.9e-6, MemBandwidth: 170e9},
			// NUMA domain (NPS4 quadrant): two DDR4-3200 channels ≈ 45 GB/s.
			{Name: "numa", Arity: 4, UpBandwidth: 50e9, BusBandwidth: 60e9, Latency: 0.45e-6, MemBandwidth: 45e9},
			// CCX sharing one L3 slice.
			{Name: "l3", Arity: 2, UpBandwidth: 55e9, BusBandwidth: 60e9, Latency: 0.25e-6, MemBandwidth: 50e9},
			{Name: "core", Arity: 8, Latency: 0.1e-6},
		},
		// EPYC 7763: 2.45 GHz; CG's sparse kernels sustain a fraction of
		// peak — the roofline uses an effective per-core rate.
		CoreFlops: 9.8e9,
	}
}

// LUMINode returns a single LUMI compute node as its own platform,
// hierarchy ⟦2, 4, 2, 8⟧ (socket, numa, l3, core) — the machine of the
// conjugate-gradient strong-scaling experiment (§4.3).
func LUMINode() netmodel.Spec {
	return netmodel.Spec{
		Name: "lumi-node",
		Levels: []netmodel.LevelSpec{
			{Name: "socket", Arity: 2, UpBandwidth: 36e9, BusBandwidth: 110e9, Latency: 0.9e-6, MemBandwidth: 170e9},
			{Name: "numa", Arity: 4, UpBandwidth: 50e9, BusBandwidth: 60e9, Latency: 0.45e-6, MemBandwidth: 45e9},
			{Name: "l3", Arity: 2, UpBandwidth: 55e9, BusBandwidth: 60e9, Latency: 0.25e-6, MemBandwidth: 50e9},
			{Name: "core", Arity: 8, Latency: 0.1e-6},
		},
		CoreFlops: 9.8e9,
	}
}

// Cloud depth bounds: the synthetic cloud machine is the deep-hierarchy
// scenario family (following Cloud Collectives, Luo et al.), served only
// through the bounded branch-and-bound / beam search.
const (
	CloudMinDepth = 6
	CloudMaxDepth = 12
)

// cloudLevels is the full 12-level template, outermost to innermost: a
// datacenter fabric (zone/spine/pod/rack/ToR/chassis) over virtualized
// hosts (host/VM) over a node interior (socket/NUMA/L3/core). Latencies
// decrease and bandwidths increase monotonically inward, so deep
// hierarchies exercise both terms of the advisor model at every depth.
var cloudLevels = []netmodel.LevelSpec{
	{Name: "zone", Arity: 2, UpBandwidth: 8e9, Latency: 5.0e-6},
	{Name: "spine", Arity: 2, UpBandwidth: 10e9, Latency: 3.2e-6},
	{Name: "pod", Arity: 2, UpBandwidth: 12e9, Latency: 2.4e-6},
	{Name: "rack", Arity: 2, UpBandwidth: 15e9, Latency: 1.8e-6},
	{Name: "tor", Arity: 2, UpBandwidth: 18e9, Latency: 1.4e-6},
	{Name: "chassis", Arity: 2, UpBandwidth: 22e9, Latency: 1.0e-6},
	{Name: "host", Arity: 2, UpBandwidth: 25e9, BusBandwidth: 70e9, Latency: 0.8e-6},
	{Name: "vm", Arity: 2, UpBandwidth: 30e9, BusBandwidth: 80e9, Latency: 0.6e-6},
	{Name: "socket", Arity: 2, UpBandwidth: 36e9, BusBandwidth: 110e9, Latency: 0.45e-6, MemBandwidth: 170e9},
	{Name: "numa", Arity: 2, UpBandwidth: 45e9, BusBandwidth: 60e9, Latency: 0.3e-6, MemBandwidth: 45e9},
	{Name: "l3", Arity: 2, UpBandwidth: 55e9, BusBandwidth: 60e9, Latency: 0.2e-6, MemBandwidth: 50e9},
	{Name: "core", Arity: 4, Latency: 0.1e-6},
}

// Cloud returns the synthetic deep cloud machine at the given hierarchy
// depth (CloudMinDepth..CloudMaxDepth): the innermost depth levels of the
// 12-level template, so depth 10 is ⟦2×…×2, 4⟧ with 2048 cores and depth
// 12 the full 8192-core datacenter. Unlike the paper machines its shape
// is fixed per depth — the point is searching deep order spaces, not
// sizing nodes.
func Cloud(depth int) netmodel.Spec {
	if depth < CloudMinDepth || depth > CloudMaxDepth {
		panic("cluster: cloud depth out of range")
	}
	levels := make([]netmodel.LevelSpec, depth)
	copy(levels, cloudLevels[len(cloudLevels)-depth:])
	return netmodel.Spec{
		Name:   "cloud",
		Levels: levels,
		// Generic cloud VCPUs; only the collective model reads this spec.
		CoreFlops: 8e9,
	}
}

// HydraHierarchy returns the ⟦nodes, 2, 2, 8⟧ hierarchy used throughout
// the Hydra experiments.
func HydraHierarchy(nodes int) topology.Hierarchy {
	return topology.MustNew(nodes, 2, 2, 8)
}

// LUMIHierarchy returns the ⟦nodes, 2, 4, 2, 8⟧ hierarchy of LUMI.
func LUMIHierarchy(nodes int) topology.Hierarchy {
	return topology.MustNew(nodes, 2, 4, 2, 8)
}

// LUMINodeHierarchy returns the ⟦2, 4, 2, 8⟧ hierarchy of one LUMI node.
func LUMINodeHierarchy() topology.Hierarchy {
	return topology.MustNew(2, 4, 2, 8)
}

// HydraSlurmDefaultOrder is the order equivalent to the default Slurm
// mapping on Hydra (block:cyclic — §4.2 names [1, 3, 2, 0]).
func HydraSlurmDefaultOrder() []int { return []int{1, 3, 2, 0} }
