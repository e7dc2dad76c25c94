// Platform construction: turning a hierarchy plus per-level link
// characteristics into the link graph the fluid model runs on.

package netmodel

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/topology"
)

// LevelSpec describes the communication resources of one hierarchy level.
// A Spec has one LevelSpec per hierarchy level, outermost first; the last
// level describes the cores themselves (only Latency and MemBandwidth are
// meaningful there).
type LevelSpec struct {
	Name  string
	Arity int

	// UpBandwidth is the egress (and, separately, ingress) bandwidth in
	// bytes/s of the link connecting one domain of this level to its parent
	// — for the node level this is the NIC. 0 means unlimited.
	UpBandwidth float64

	// BusBandwidth is the internal interconnect bandwidth of one domain of
	// this level, shared by flows whose lowest common ancestor is that
	// domain and by the source/destination memory traffic of flows entering
	// or leaving it at the innermost level. 0 means unlimited.
	BusBandwidth float64

	// Latency is the one-way latency in seconds of a message whose
	// outermost crossing is this level (for the innermost level: latency
	// between two cores of the same lowest domain).
	Latency float64

	// MemBandwidth is the memory bandwidth in bytes/s of one domain of this
	// level, shared by the compute-memory traffic of the ranks it hosts.
	// 0 means this level does not constrain compute.
	MemBandwidth float64
}

// Spec is the full machine description.
type Spec struct {
	Name   string
	Levels []LevelSpec

	// FabricBandwidth bounds the aggregate inter-node traffic (the core
	// switch). 0 means unlimited (full-bisection network).
	FabricBandwidth float64

	// NICsPerNode multiplies the node-level UpBandwidth (Figure 8 contrasts
	// 1 and 2 NICs per node). 0 is treated as 1.
	NICsPerNode int

	// CoreFlops is the peak floating-point rate of one core in flop/s, used
	// by the roofline compute model. 0 means compute time is memory-only.
	CoreFlops float64

	// NoContention disables bandwidth sharing (ablation): every flow gets
	// its narrowest link's full capacity.
	NoContention bool
}

// Hierarchy returns the topology implied by the level arities.
func (s Spec) Hierarchy() topology.Hierarchy {
	levels := make([]topology.Level, len(s.Levels))
	for i, l := range s.Levels {
		name := l.Name
		if name == "" {
			name = fmt.Sprintf("level%d", i)
		}
		levels[i] = topology.Level{Name: name, Arity: l.Arity}
	}
	h, err := topology.NewNamed(levels...)
	if err != nil {
		panic(err)
	}
	return h
}

// Platform is an instantiated machine: the link graph for a Spec plus the
// fluid simulation that animates it.
type Platform struct {
	spec  Spec
	hier  topology.Hierarchy
	fluid *Fluid

	// out[l][d], in[l][d]: egress/ingress uplink of domain d at level l
	// (levels 0 … depth-2). nil when the level's UpBandwidth is unlimited.
	out [][]*Link
	in  [][]*Link
	// bus[l][d]: internal bus of domain d at level l. nil when unlimited.
	bus [][]*Link
	// mem[l][d]: memory resource of domain d at level l; nil when the level
	// has no MemBandwidth.
	mem [][]*Link

	fabric *Link

	// suffix[l] = number of cores per domain at level l.
	suffix []int

	// paths[da][db] is the link list between two different cores of
	// innermost domains da and db — the only inputs it depends on — built
	// on first use; a row is allocated when its source domain first sends.
	// Flows share the cached slices and never write to them.
	paths [][][]*Link
}

// NewPlatform builds the link graph for the spec on the engine.
func NewPlatform(engine *sim.Engine, spec Spec) *Platform {
	hier := spec.Hierarchy()
	k := hier.Depth()
	p := &Platform{
		spec:  spec,
		hier:  hier,
		fluid: NewFluid(engine),
		out:   make([][]*Link, k),
		in:    make([][]*Link, k),
		bus:   make([][]*Link, k),
		mem:   make([][]*Link, k),
	}
	p.fluid.NoContention = spec.NoContention
	p.suffix = make([]int, k+1)
	p.suffix[k] = 1
	ar := hier.Arities()
	for l := k - 1; l >= 0; l-- {
		p.suffix[l] = p.suffix[l+1] * ar[l]
	}
	nics := spec.NICsPerNode
	if nics <= 0 {
		nics = 1
	}
	total := hier.Size()
	for l := 0; l < k; l++ {
		domains := total / p.suffix[l+1]
		ls := spec.Levels[l]
		up := ls.UpBandwidth
		if l == 0 {
			up *= float64(nics)
		}
		if up > 0 && l < k-1 {
			p.out[l] = make([]*Link, domains)
			p.in[l] = make([]*Link, domains)
			for d := 0; d < domains; d++ {
				p.out[l][d] = NewLink(fmt.Sprintf("%s%d.out", ls.Name, d), up)
				p.in[l][d] = NewLink(fmt.Sprintf("%s%d.in", ls.Name, d), up)
			}
		}
		if ls.BusBandwidth > 0 && l < k-1 {
			p.bus[l] = make([]*Link, domains)
			for d := 0; d < domains; d++ {
				p.bus[l][d] = NewLink(fmt.Sprintf("%s%d.bus", ls.Name, d), ls.BusBandwidth)
			}
		}
		if ls.MemBandwidth > 0 {
			p.mem[l] = make([]*Link, domains)
			for d := 0; d < domains; d++ {
				p.mem[l][d] = NewLink(fmt.Sprintf("%s%d.mem", ls.Name, d), ls.MemBandwidth)
			}
		}
	}
	if spec.FabricBandwidth > 0 {
		p.fabric = NewLink("fabric", spec.FabricBandwidth)
	}
	p.paths = make([][][]*Link, total/p.suffix[k-1])
	return p
}

// Spec returns the machine description.
func (p *Platform) Spec() Spec { return p.spec }

// Hierarchy returns the machine topology.
func (p *Platform) Hierarchy() topology.Hierarchy { return p.hier }

// NumCores returns the number of cores of the machine.
func (p *Platform) NumCores() int { return p.hier.Size() }

// domain returns the index of the level-l domain containing the core
// (a domain at level l spans suffix[l+1] cores).
func (p *Platform) domain(core, l int) int { return core / p.suffix[l+1] }

// innermostDomainLevel is the level of the lowest non-core domains.
func (p *Platform) innermostDomainLevel() int { return p.hier.Depth() - 2 }

// CommPath returns the links a message from core a to core b traverses and
// its latency. Same-core transfers have an empty path (pure latency). The
// returned slice is shared with every other message between the same two
// innermost domains: callers must not modify it.
func (p *Platform) CommPath(a, b int) ([]*Link, float64) {
	k := p.hier.Depth()
	d := p.hier.FirstDiffLevel(a, b)
	if d == k {
		return nil, p.spec.Levels[k-1].Latency
	}
	da, db := a/p.suffix[k-1], b/p.suffix[k-1]
	row := p.paths[da]
	if row == nil {
		row = make([][]*Link, len(p.paths))
		p.paths[da] = row
	}
	path := row[db]
	if path == nil {
		path = p.buildPath(a, b, d)
		row[db] = path
	}
	return path, p.spec.Levels[d].Latency
}

// buildPath lists the links between two different cores whose outermost
// differing level is d. The result is never nil, so that a cached empty
// path is told from a missing one.
func (p *Platform) buildPath(a, b, d int) []*Link {
	k := p.hier.Depth()
	inner := p.innermostDomainLevel()
	path := make([]*Link, 0, 2*(k-d)+3)
	// Source memory: the bus of a's innermost domain.
	if inner >= 0 && p.bus[inner] != nil {
		path = append(path, p.bus[inner][p.domain(a, inner)])
	}
	if d <= inner {
		// Climb out of a's domains.
		for l := inner; l >= d; l-- {
			if p.out[l] != nil {
				path = append(path, p.out[l][p.domain(a, l)])
			}
		}
		// Shared interconnect at the meeting point.
		if d == 0 {
			if p.fabric != nil {
				path = append(path, p.fabric)
			}
		} else if p.bus[d-1] != nil {
			path = append(path, p.bus[d-1][p.domain(a, d-1)])
		}
		// Descend into b's domains.
		for l := d; l <= inner; l++ {
			if p.in[l] != nil {
				path = append(path, p.in[l][p.domain(b, l)])
			}
		}
	}
	// Destination memory.
	if inner >= 0 && p.bus[inner] != nil {
		dst := p.bus[inner][p.domain(b, inner)]
		if len(path) == 0 || path[0] != dst {
			path = append(path, dst)
		}
	}
	return path
}

// StartTransfer begins an a→b message that fires done on arrival. The
// path latency is multiplied by 1+2·extraRTT: the MPI layer charges a
// rendezvous handshake as one extra round trip.
func (p *Platform) StartTransfer(done *sim.Condition, a, b int, bytes float64, extraRTT int) {
	path, lat := p.CommPath(a, b)
	p.fluid.StartTransferTo(done, path, bytes, lat*float64(1+2*extraRTT))
}

// Transfer performs a blocking a→b message from the calling process.
func (p *Platform) Transfer(proc *sim.Process, a, b int, bytes float64) {
	path, lat := p.CommPath(a, b)
	p.fluid.Transfer(proc, path, bytes, lat)
}

// MemPath returns the memory resources charged by compute on the core.
func (p *Platform) MemPath(core int) []*Link {
	var path []*Link
	for l := 0; l < p.hier.Depth(); l++ {
		if p.mem[l] != nil {
			path = append(path, p.mem[l][p.domain(core, l)])
		}
	}
	return path
}

// Compute models a roofline kernel on the core: it completes when both the
// flop work (flops / CoreFlops seconds of CPU) and the memory traffic
// (bytes through the core's shared memory domains) are done. The memory
// traffic contends max-min fairly with the compute traffic of other ranks
// in the same domains.
func (p *Platform) Compute(proc *sim.Process, core int, flops, bytes float64) {
	start := proc.Now()
	if bytes > 0 {
		path := p.MemPath(core)
		p.fluid.Transfer(proc, path, bytes, 0)
	}
	if p.spec.CoreFlops > 0 && flops > 0 {
		need := flops / p.spec.CoreFlops
		elapsed := proc.Now() - start
		if elapsed < need {
			proc.Wait(need - elapsed)
		}
	}
}
