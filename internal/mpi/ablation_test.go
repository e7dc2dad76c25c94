package mpi

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/mixedradix"
)

// BenchmarkAblationCollAlgorithms runs each alltoall schedule on the same
// Figure 3 point — 16 Hydra nodes, 16-rank communicators under order
// 3-2-1-0, 1 MiB per communicator, every communicator at once — and
// reports the mean communicator bandwidth ("results with a fixed algorithm
// show similar trends", §4.1.1). At this size the size rules pick
// pairwise, so Bruck runs only through a direct call.
func BenchmarkAblationCollAlgorithms(b *testing.B) {
	const nodes, p, size = 16, 16, 1 << 20
	h := cluster.HydraHierarchy(nodes)
	table, err := mixedradix.ReorderAll(h.Arities(), []int{3, 2, 1, 0})
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range []struct {
		name  string
		sched func(*Comm, *Rank, int64, slots) slots
	}{
		{"pairwise", (*Comm).alltoallPairwise},
		{"bruck", (*Comm).alltoallBruck},
	} {
		b.Run(s.name, func(b *testing.B) {
			var bw float64 // sum over communicators of size / duration
			for i := 0; i < b.N; i++ {
				bw = 0
				_, err := Run(cluster.Hydra(nodes, 1), identityBinding(h.Size()), Config{}, func(r *Rank) {
					comm := r.World().Split(r, table[r.ID()]/p, table[r.ID()]%p)
					send := make([]Buf, p)
					for d := range send {
						send[d] = BytesBuf(size / p / p)
					}
					comm.Barrier(r)
					start := r.Now()
					s.sched(comm, r, comm.nextSeq(), slotsOf(send))
					if comm.Rank() == 0 {
						bw += size / (r.Now() - start)
					}
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(bw/float64(h.Size()/p)/1e6, "MB/s")
		})
	}
}
