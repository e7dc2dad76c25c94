// Buffers carried by simulated messages. A Buf either carries real float64
// payload (applications like the CPD and CG solvers) or only a byte count
// (micro-benchmarks), so collective algorithms are written once and serve
// both the numeric and the synthetic workloads.

package mpi

import "fmt"

// Buf is a message payload: a byte count and, optionally, real data. When
// Data is non-nil, Bytes must equal 8·len(Data).
type Buf struct {
	Bytes int64
	Data  []float64
}

// BytesBuf returns a synthetic payload of n bytes.
func BytesBuf(n int64) Buf {
	if n < 0 {
		panic("mpi: negative buffer size")
	}
	return Buf{Bytes: n}
}

// F64Buf returns a payload carrying real float64 data.
func F64Buf(data []float64) Buf {
	return Buf{Bytes: int64(len(data)) * 8, Data: data}
}

// check panics on an internally inconsistent buffer.
func (b Buf) check() {
	if b.Data != nil && b.Bytes != int64(len(b.Data))*8 {
		panic(fmt.Sprintf("mpi: inconsistent Buf: %d bytes, %d elements", b.Bytes, len(b.Data)))
	}
	if b.Bytes < 0 {
		panic("mpi: negative Buf size")
	}
}

// Clone returns a deep copy (messages must not alias sender memory).
func (b Buf) Clone() Buf {
	if b.Data == nil {
		return b
	}
	d := make([]float64, len(b.Data))
	copy(d, b.Data)
	return Buf{Bytes: b.Bytes, Data: d}
}

// Concat appends the payloads in order.
func Concat(bufs ...Buf) Buf {
	var total int64
	data := true
	n := 0
	for _, b := range bufs {
		b.check()
		total += b.Bytes
		if b.Data == nil && b.Bytes > 0 {
			data = false
		}
		n += len(b.Data)
	}
	if !data {
		return Buf{Bytes: total}
	}
	out := make([]float64, 0, n)
	for _, b := range bufs {
		out = append(out, b.Data...)
	}
	return Buf{Bytes: total, Data: out}
}

// SplitEven cuts the buffer into parts nearly equal chunks following the
// MPI block distribution: chunk i covers elements [n·i/parts, n·(i+1)/parts)
// of the payload, or the same fractions of Bytes when there is none.
func (b Buf) SplitEven(parts int) []Buf {
	b.check()
	if parts <= 0 {
		panic("mpi: SplitEven with no parts")
	}
	out := make([]Buf, parts)
	for i := range out {
		out[i] = b.chunk(i, parts)
	}
	return out
}

// chunk returns chunk i of SplitEven(parts) without building the others.
func (b Buf) chunk(i, parts int) Buf {
	if b.Data != nil {
		n := len(b.Data)
		return F64Buf(b.Data[n*i/parts : n*(i+1)/parts])
	}
	n := int64(parts)
	return Buf{Bytes: b.Bytes*int64(i+1)/n - b.Bytes*int64(i)/n}
}

// slots is the set of per-peer blocks a rank holds inside a collective, as
// parallel arrays: a byte count per block always, payloads only once some
// block carries data. The micro-benchmarks and the CPD move payload-less
// blocks, so their collectives shuffle 8 bytes per block instead of a Buf.
// The counts must stay per block: blocks that are equal within each rank
// still differ between ranks (Alltoallv), and Bruck and recursive doubling
// re-split what they receive.
type slots struct {
	bytes []int64
	data  [][]float64 // nil while every block is payload-less
}

func newSlots(n int) slots { return slots{bytes: make([]int64, n)} }

// slotsOf checks and unpacks a caller's buffers.
func slotsOf(bufs []Buf) slots {
	s := newSlots(len(bufs))
	for i, b := range bufs {
		b.check()
		s.set(i, b)
	}
	return s
}

func (s slots) get(i int) Buf {
	if s.data == nil {
		return Buf{Bytes: s.bytes[i]}
	}
	return Buf{Bytes: s.bytes[i], Data: s.data[i]}
}

func (s *slots) set(i int, b Buf) {
	s.bytes[i] = b.Bytes
	if b.Data != nil && s.data == nil {
		s.data = make([][]float64, len(s.bytes))
	}
	if s.data != nil {
		s.data[i] = b.Data
	}
}

// concat returns, as one message like Concat, the blocks i of [lo, hi)
// with i&mask == mask, and how many they are.
func (s slots) concat(lo, hi, mask int) (Buf, int) {
	var out Buf
	var parts []Buf // payload-carrying sets only
	n := 0
	for i := lo; i < hi; i++ {
		if i&mask != mask {
			continue
		}
		n++
		out.Bytes += s.bytes[i]
		if s.data != nil {
			parts = append(parts, s.get(i))
		}
	}
	if s.data != nil {
		out = Concat(parts...)
	}
	return out, n
}

// spread replaces the n blocks concat selects with the even split of in.
// Payload-less chunks take a running remainder: with Bytes = q·n + r,
// chunk j is q, plus one when r·(j+1) passes a multiple of n.
func (s *slots) spread(in Buf, lo, hi, mask, n int) {
	q, r, rem := in.Bytes/int64(n), in.Bytes%int64(n), int64(0)
	for i, j := lo, 0; i < hi; i++ {
		if i&mask == mask {
			b := Buf{Bytes: q}
			if rem += r; rem >= int64(n) {
				b.Bytes, rem = q+1, rem-int64(n)
			}
			if in.Data != nil {
				b = in.chunk(j, n).Clone()
			}
			s.set(i, b)
			j++
		}
	}
}

// bufs repacks the blocks for a caller.
func (s slots) bufs() []Buf {
	out := make([]Buf, len(s.bytes))
	for i := range out {
		out[i] = s.get(i)
	}
	return out
}

// ReduceOp combines two equal-length payloads elementwise.
type ReduceOp int

// Supported reduction operations.
const (
	OpSum ReduceOp = iota
	OpMax
	OpMin
)

func (op ReduceOp) String() string {
	switch op {
	case OpSum:
		return "sum"
	case OpMax:
		return "max"
	case OpMin:
		return "min"
	}
	return fmt.Sprintf("ReduceOp(%d)", int(op))
}

// Combine applies the reduction to two buffers of equal size. Synthetic
// buffers combine into a synthetic buffer of the same size; mixing a data
// and a synthetic buffer yields a synthetic buffer.
func Combine(op ReduceOp, a, b Buf) Buf {
	a.check()
	b.check()
	if a.Bytes != b.Bytes {
		panic(fmt.Sprintf("mpi: Combine size mismatch: %d vs %d bytes", a.Bytes, b.Bytes))
	}
	if a.Data == nil || b.Data == nil {
		return Buf{Bytes: a.Bytes}
	}
	out := make([]float64, len(a.Data))
	switch op {
	case OpSum:
		for i := range out {
			out[i] = a.Data[i] + b.Data[i]
		}
	case OpMax:
		for i := range out {
			out[i] = max(a.Data[i], b.Data[i])
		}
	case OpMin:
		for i := range out {
			out[i] = min(a.Data[i], b.Data[i])
		}
	default:
		panic("mpi: unknown reduce op")
	}
	return F64Buf(out)
}
