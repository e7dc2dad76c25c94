// The sim suite: the simulator stack underneath every evaluation figure
// (sim event engine → netmodel fluid model → mpi schedules), one
// benchmark per layer plus the message path's allocation cost, so a win or
// a regression in Figures 3–9 host time is attributable to one of them.

package perf

import (
	"runtime"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/figures"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/sim"
)

// SimSuite benchmarks the simulator layers: the bare engine's wait chain,
// the fluid model's contended recompute, the two large collective points
// of Figures 5 and 6, and allocations per message on a barrier loop.
func SimSuite() Suite {
	s := Suite{
		Name:        "sim",
		Description: "simulator stack: engine wait chain, fluid recompute, 512/2048-rank collectives, allocs per message",
		Threshold:   0.25,
	}
	s.Benches = append(s.Benches, Bench{
		// One op is one event: heap push, pop and the wake of the waiter.
		Name: "SimWaitChain",
		F: func(b *B) {
			eng := sim.NewEngine()
			eng.Spawn("waiter", func(p *sim.Process) {
				for i := 0; i < b.N; i++ {
					p.Wait(1e-6)
				}
			})
			if err := eng.Run(); err != nil {
				b.Fatalf("%v", err)
			}
		},
	})
	s.Benches = append(s.Benches, Bench{
		// 512 flows of different sizes over one link finish one by one;
		// every completion recomputes the max-min shares of the rest.
		Name: "FluidContended/flows=512",
		F: func(b *B) {
			const flows = 512
			for i := 0; i < b.N; i++ {
				eng := sim.NewEngine()
				fluid := netmodel.NewFluid(eng)
				nic := []*netmodel.Link{netmodel.NewLink("nic", 10e9)}
				for j := 0; j < flows; j++ {
					fluid.StartTransfer(nic, float64((1+j)*64<<10), 1e-6)
				}
				if err := eng.Run(); err != nil {
					b.Fatalf("%v", err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.elapsed.Nanoseconds())/1e3/float64(b.N)/flows, "us/flow")
		},
	})
	size := []int64{256 << 10}
	for _, pt := range []struct {
		name string
		cfg  bench.Config
	}{
		{"Allreduce/ranks=512/c=64/256KB", figures.Figure6(size).Config},
		{"Alltoall/ranks=2048/c=16/256KB", figures.Figure5(size).Config},
	} {
		s.Benches = append(s.Benches, Bench{
			Name: pt.name,
			F: func(b *B) {
				for i := 0; i < b.N; i++ {
					if _, err := bench.Measure(pt.cfg, pt.cfg.Orders[0], size[0], true); err != nil {
						b.Fatalf("%v", err)
					}
				}
			},
		})
	}
	s.Benches = append(s.Benches, Bench{
		// Zero-byte dissemination rounds: nothing but the message path
		// (request, match, transfer, wake), so heap objects per message is
		// what isend/irecv/Wait cost.
		Name: "BarrierLoop/ranks=64",
		F: func(b *B) {
			const ranks, barriers, rounds = 64, 200, 6 // rounds = log2(ranks)
			binding := make([]int, ranks)
			for i := range binding {
				binding[i] = i
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < b.N; i++ {
				_, err := mpi.Run(cluster.Hydra(2, 1), binding, mpi.Config{}, func(r *mpi.Rank) {
					for j := 0; j < barriers; j++ {
						r.World().Barrier(r)
					}
				})
				if err != nil {
					b.Fatalf("%v", err)
				}
			}
			runtime.ReadMemStats(&m1)
			msgs := float64(b.N) * ranks * barriers * rounds
			b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/msgs, "allocs/msg")
			b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/msgs, "B/msg")
		},
	})
	return s
}
