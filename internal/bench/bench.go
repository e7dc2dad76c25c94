// Package bench drives the paper's micro-benchmark protocol (§4.1) on the
// simulated clusters:
//
//  1. reorder the world ranks with an order σ (realized, as in the paper's
//     first method, by splitting with the reordered rank as key),
//  2. create subcommunicators of a fixed size (quotient colouring),
//  3. measure the collective in the first subcommunicator alone,
//  4. measure it in all subcommunicators simultaneously,
//
// sweeping the total data size and reporting, per order and size, the mean
// bandwidth over communicators plus the first/last deciles across
// communicators — the quantities plotted in Figures 3–7.
package bench

import (
	"fmt"
	"sort"

	"repro/internal/metrics"
	"repro/internal/mixedradix"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/topology"
)

// Collective selects the benchmarked operation.
type Collective string

// Benchmarkable collectives (the paper's non-rooted set).
const (
	Alltoall  Collective = "alltoall"
	Allgather Collective = "allgather"
	Allreduce Collective = "allreduce"
)

// Config describes one figure's sweep.
type Config struct {
	Spec      netmodel.Spec
	Hierarchy topology.Hierarchy // must enumerate exactly the machine's cores
	CommSize  int
	Coll      Collective
	Orders    [][]int
	Sizes     []int64 // total data size S = commSize × per-rank count
	Iters     int     // timed iterations per measurement (default 3)
	MPI       mpi.Config
}

// Point is one measured size on one curve.
type Point struct {
	Size int64 // total data size S in bytes

	// Bandwidth is the mean over communicators of S / avg-iteration-time,
	// in bytes/s. P10 and P90 bound the decile band across communicators
	// (equal to Bandwidth when only one communicator runs).
	Bandwidth float64
	P10       float64
	P90       float64
}

// Series is one order's two curves.
type Series struct {
	Order    []int
	Char     metrics.Characterization
	OneComm  []Point
	AllComms []Point
}

// Run executes the full sweep.
func Run(cfg Config) ([]Series, error) {
	if err := validate(&cfg); err != nil {
		return nil, err
	}
	if len(cfg.Orders) == 0 || len(cfg.Sizes) == 0 {
		return nil, fmt.Errorf("bench: empty sweep")
	}
	out := make([]Series, 0, len(cfg.Orders))
	for _, sigma := range cfg.Orders {
		ch, err := metrics.Characterize(cfg.Hierarchy, sigma, cfg.CommSize)
		if err != nil {
			return nil, err
		}
		s := Series{Order: append([]int(nil), sigma...), Char: ch}
		for _, size := range cfg.Sizes {
			one, err := Measure(cfg, sigma, size, false)
			if err != nil {
				return nil, err
			}
			all, err := Measure(cfg, sigma, size, true)
			if err != nil {
				return nil, err
			}
			s.OneComm = append(s.OneComm, one)
			s.AllComms = append(s.AllComms, all)
		}
		out = append(out, s)
	}
	return out, nil
}

func validate(cfg *Config) error {
	n := cfg.Hierarchy.Size()
	if cfg.Spec.Hierarchy().Size() != n {
		return fmt.Errorf("bench: hierarchy %s does not match machine with %d cores",
			cfg.Hierarchy, cfg.Spec.Hierarchy().Size())
	}
	if cfg.CommSize <= 0 || n%cfg.CommSize != 0 {
		return fmt.Errorf("bench: communicator size %d does not divide %d processes", cfg.CommSize, n)
	}
	if cfg.Iters <= 0 {
		cfg.Iters = 3
	}
	switch cfg.Coll {
	case Alltoall, Allgather, Allreduce:
	default:
		return fmt.Errorf("bench: unknown collective %q", cfg.Coll)
	}
	return nil
}

// Measure runs one (order, size, scenario) measurement and returns its
// point. When simultaneous is false only the first subcommunicator runs
// the collective (the left plots of the figures).
func Measure(cfg Config, sigma []int, size int64, simultaneous bool) (Point, error) {
	if err := validate(&cfg); err != nil {
		return Point{}, err
	}
	n := cfg.Hierarchy.Size()
	p := cfg.CommSize
	nComms := n / p
	ro, err := mixedradix.NewReorderer(cfg.Hierarchy.Arities(), sigma)
	if err != nil {
		return Point{}, err
	}
	table := ro.Table() // old rank -> reordered rank
	perRank := size / int64(p)
	if perRank <= 0 {
		return Point{}, fmt.Errorf("bench: size %d too small for %d ranks", size, p)
	}

	// Ranks run one at a time, so appending from their bodies needs no lock.
	durations := make([]float64, 0, nComms)

	binding := make([]int, n)
	for i := range binding {
		binding[i] = i
	}
	sc := cfg.MPI.Obs
	_, err = mpi.Run(cfg.Spec, binding, cfg.MPI, func(r *mpi.Rank) {
		world := r.World()
		newRank := table[r.ID()]
		color := newRank / p
		key := newRank % p
		comm := world.Split(r, color, key)
		world.Barrier(r)
		// The rank that is rank 0 of the first subcommunicator narrates the
		// driver phases (it participates in every scenario).
		phases := color == 0 && comm.Rank() == 0
		splitDone := r.Now()
		if phases {
			sc.Phase("bench.split", 0, splitDone, obs.Arg{Key: "size", Val: size})
		}
		if !simultaneous && color != 0 {
			return
		}
		// Warmup iteration, then synchronized timed window.
		runCollective(r, comm, cfg.Coll, perRank)
		comm.Barrier(r)
		start := r.Now()
		if phases {
			sc.Phase("bench.warmup", splitDone, start)
		}
		for i := 0; i < cfg.Iters; i++ {
			runCollective(r, comm, cfg.Coll, perRank)
		}
		elapsed := r.Now() - start
		if phases {
			sc.Phase("bench.timed", start, r.Now(), obs.Arg{Key: "iters", Val: int64(cfg.Iters)})
		}
		if comm.Rank() == 0 {
			durations = append(durations, elapsed/float64(cfg.Iters))
		}
	})
	if err != nil {
		return Point{}, err
	}
	if len(durations) == 0 {
		return Point{}, fmt.Errorf("bench: no communicator reported a duration (size %d)", size)
	}
	bws := make([]float64, len(durations))
	for i, d := range durations {
		bws[i] = float64(size) / d
	}
	sort.Float64s(bws)
	var mean float64
	for _, b := range bws {
		mean += b
	}
	mean /= float64(len(bws))
	return Point{
		Size:      size,
		Bandwidth: mean,
		P10:       bws[len(bws)/10],
		P90:       bws[len(bws)-1-len(bws)/10],
	}, nil
}

// runCollective issues one synthetic collective with a per-rank
// contribution of perRank bytes.
func runCollective(r *mpi.Rank, comm *mpi.Comm, coll Collective, perRank int64) {
	switch coll {
	case Alltoall:
		block := perRank / int64(comm.Size())
		if block <= 0 {
			block = 1
		}
		comm.AlltoallBytes(r, block)
	case Allgather:
		comm.AllgatherBytes(r, perRank)
	case Allreduce:
		comm.AllreduceBytes(r, perRank)
	default:
		panic("bench: unknown collective")
	}
}

// Sizes16KBto512MB returns the paper's x-axis: powers of four from 16 KB
// to 512 MB (16K, 64K, …, 256M) plus the 512 MB endpoint.
func Sizes16KBto512MB() []int64 {
	var out []int64
	for s := int64(16 << 10); s <= 256<<20; s *= 4 {
		out = append(out, s)
	}
	return append(out, 512<<20)
}

// FormatMBps renders a bandwidth in MB/s for tables.
func FormatMBps(bps float64) string {
	return fmt.Sprintf("%.0f", bps/1e6)
}
