package layers

import (
	"time"

	"repro/internal/bench"
	"repro/internal/cg"
	"repro/internal/cluster"
	"repro/internal/figures"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/slurm"
	"repro/internal/splatt"
	"repro/internal/tensor"
)

// probeSim times the simulator stack. The 2048-rank LUMI points of
// Figures 5 and 7 cost 0.3 to 2 s each, too few per window to be ops of
// sim_figs, so they are measured here, once each.
func probeSim(m Metrics) error {
	var err error
	size := []int64{256 << 10}

	// One Figure 5 point (LUMI, 2048 ranks, 128 simultaneous all-to-alls
	// of 16 ranks, 256 KB) under an observability scope: exact event and
	// message counts next to the host time they took.
	f5 := figures.Figure5(size).Config
	scope := obs.New(obs.Options{})
	f5.MPI.Obs = scope
	host, _ := once(func() { _, err = bench.Measure(f5, f5.Orders[0], size[0], true) })
	if err != nil {
		return err
	}
	reg := scope.Registry()
	m["sim.events_total"] = reg.SumCounters("sim_events_total")
	m["sim.events_per_host_s"] = reg.SumCounters("sim_events_total") / (host / 1e3)
	m["sim.queue_depth_max"] = reg.FindGauge("sim_queue_depth_max")
	m["mpi.messages_total"] = reg.SumCounters("mpi_messages_total")
	m["mpi.level_bytes_total"] = reg.SumCounters("mpi_level_bytes_total")
	var virtual float64
	for _, sp := range scope.Spans() {
		if sp.End > virtual {
			virtual = sp.End
		}
	}
	if virtual > 0 {
		m["bench.host_s_per_virtual_s"] = host / 1e3 / virtual
	}

	// The same point and its Figure 6 and 7 siblings without the scope:
	// one collective schedule per call.
	f5.MPI.Obs = nil
	m["mpi.alltoall_2048_host_ms"], _ = once(func() { _, err = bench.Measure(f5, f5.Orders[0], size[0], true) })
	if err != nil {
		return err
	}
	f6 := figures.Figure6(size).Config
	m["mpi.allreduce_512_host_ms"], _ = once(func() { _, err = bench.Measure(f6, f6.Orders[0], size[0], true) })
	if err != nil {
		return err
	}
	f7 := figures.Figure7(size).Config
	// One 256-rank allgather: all eight at once cost 16 s of host time.
	m["mpi.allgather_2048_host_ms"], _ = once(func() { _, err = bench.Measure(f7, f7.Orders[0], size[0], false) })
	if err != nil {
		return err
	}
	binding := make([]int, 2048)
	for i := range binding {
		binding[i] = i
	}
	m["mpi.world_setup_ms_2048"], _ = once(func() { _, err = mpi.Run(cluster.LUMI(16), binding, mpi.Config{}, func(*mpi.Rank) {}) })
	if err != nil {
		return err
	}

	// The bare engine: one process waiting 200 000 times is a chain of
	// heap push, pop and goroutine hand-off per event.
	const waits = 200_000
	t0 := time.Now()
	eng := sim.NewEngine()
	eng.Spawn("waiter", func(p *sim.Process) {
		for i := 0; i < waits; i++ {
			p.Wait(1e-6)
		}
	})
	if err := eng.Run(); err != nil {
		return err
	}
	m["sim.waitchain_ns_per_event"] = float64(time.Since(t0).Nanoseconds()) / waits

	// The fluid model under contention: 512 flows of different sizes over
	// one 10 GB/s link finish one by one, each completion recomputing the
	// max-min shares of the rest.
	const flows = 512
	t0 = time.Now()
	eng = sim.NewEngine()
	fluid := netmodel.NewFluid(eng)
	nic := []*netmodel.Link{netmodel.NewLink("nic", 10e9)}
	for i := 0; i < flows; i++ {
		fluid.StartTransfer(nic, float64((1+i)*64<<10), 1e-6)
	}
	if err := eng.Run(); err != nil {
		return err
	}
	m["netmodel.contended_flows_us_per_flow"] = float64(time.Since(t0).Nanoseconds()) / 1e3 / flows

	// The applications: class-S-sized CG on 16 cores of a LUMI node (1408
	// rows, so that 16 divides them) and one CPD iteration on 8 Hydra
	// nodes.
	cores, err := slurm.MapCPU(cluster.LUMINodeHierarchy(), []int{3, 2, 1, 0}, 16)
	if err != nil {
		return err
	}
	prob := cg.ClassS()
	prob.N = 1408
	ns, _ := perOp(2, func() { _, err = cg.Run(cluster.LUMINode(), cores, prob, mpi.Config{}) })
	if err != nil {
		return err
	}
	m["cg.run_host_ms_p16"] = ns / 1e6
	t := tensor.SyntheticNell([3]int{100_000, 2_000, 2_000}, 200_000, 1001)
	m["splatt.cpd_host_ms_8nodes"], _ = once(func() {
		_, err = splatt.Run(splatt.Config{
			Spec: cluster.Hydra(8, 1), Hierarchy: cluster.HydraHierarchy(8), Order: []int{3, 2, 1, 0},
			Grid: tensor.Grid{16, 4, 4}, Tensor: t, Rank: 16, Iters: 1,
		})
	})
	return err
}
