// Package hll implements the HyperLogLog cardinality sketch of Flajolet,
// Fusy, Gandouet and Meunier (paper §3.2.1, reference [9]), from scratch on
// the standard library only.
//
// A sketch with β = 2^k cells approximates the number of distinct items
// inserted with a standard error of about 1.04/√β using β bytes of state.
// Two sketches over the same β merge by taking the cell-wise maximum, which
// is exactly the union operation the paper's influence oracle relies on
// (§4.1: "HyperLogLog sketch union requires taking the maximum at each
// bucket index").
//
// Items are 64-bit values; callers hash their domain values first (see
// Hash64). The first k bits of the hash select the cell, and the rank — the
// number of leading zeros of the remaining bits plus one — is what the cell
// stores.
package hll

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// MinPrecision and MaxPrecision bound the supported k = log2(β).
const (
	MinPrecision = 4
	MaxPrecision = 18
)

// Sketch is a HyperLogLog counter. The zero value is unusable; construct
// with New.
type Sketch struct {
	precision uint8   // k
	registers []uint8 // β = 2^k cells, each the max rank seen
}

// New returns an empty sketch with 2^precision cells. It returns an error
// if precision is outside [MinPrecision, MaxPrecision].
func New(precision int) (*Sketch, error) {
	if precision < MinPrecision || precision > MaxPrecision {
		return nil, precisionError(precision)
	}
	return &Sketch{
		precision: uint8(precision),
		registers: make([]uint8, 1<<precision),
	}, nil
}

// precisionError is New's error. It formats only when read, which keeps
// New and MustNew small enough to inline: a query's union sketch then
// lives on the caller's stack, and its register array is the query's one
// allocation.
type precisionError int

func (p precisionError) Error() string {
	return fmt.Sprintf("hll: precision %d outside [%d,%d]", int(p), MinPrecision, MaxPrecision)
}

// rankError is SetRegister's panic value, formatted only when read.
type rankError uint8

func (r rankError) Error() string {
	return fmt.Sprintf("hll: rank %d is above what Split produces", uint8(r))
}

// MustNew is New for statically known precisions; it panics on error.
func MustNew(precision int) *Sketch {
	s, err := New(precision)
	if err != nil {
		panic(err)
	}
	return s
}

// Precision returns k = log2(number of cells).
func (s *Sketch) Precision() int { return int(s.precision) }

// NumCells returns β, the number of cells.
func (s *Sketch) NumCells() int { return len(s.registers) }

// Split decomposes a 64-bit hash into the cell index ι(x) (the top k bits)
// and the rank ρ(x) (leading zeros of the remaining 64−k bits, plus one).
// The rank is capped at 64−k+1, which the estimator never distinguishes in
// practice.
func Split(hash uint64, precision int) (cell uint32, rank uint8) {
	cell = uint32(hash >> (64 - precision))
	rest := hash << precision
	// After the shift the low `precision` bits are zero; they must not
	// contribute to the rank, so cap explicitly.
	r := bits.LeadingZeros64(rest) + 1
	if max := 64 - precision + 1; r > max {
		r = max
	}
	return cell, uint8(r)
}

// AddHash inserts a pre-hashed item.
func (s *Sketch) AddHash(hash uint64) {
	cell, rank := Split(hash, int(s.precision))
	if rank > s.registers[cell] {
		s.registers[cell] = rank
	}
}

// Add inserts an item identified by a 64-bit value, hashing it first.
func (s *Sketch) Add(item uint64) { s.AddHash(Hash64(item)) }

// SetRegister raises cell to at least rank. It is the primitive the
// versioned sketch uses when collapsing a window into a plain HLL, and
// tests use to build reference registers. It panics if rank is above
// 65−precision, the highest rank Split produces: the register kernel
// needs every register below 128.
func (s *Sketch) SetRegister(cell uint32, rank uint8) {
	if rank > maxRank(s.precision) {
		panic(rankError(rank))
	}
	if rank > s.registers[cell] {
		s.registers[cell] = rank
	}
}

// Register returns the current rank stored in cell.
func (s *Sketch) Register(cell uint32) uint8 { return s.registers[cell] }

// Merge unions other into s (cell-wise maximum), eight registers per
// 64-bit word. Both sketches must share the same precision.
func (s *Sketch) Merge(other *Sketch) error {
	if other.precision != s.precision {
		return fmt.Errorf("hll: cannot merge precision %d into %d", other.precision, s.precision)
	}
	dst, src := s.registers, other.registers[:len(s.registers)]
	for i := 0; i+8 <= len(dst); i += 8 {
		d := dst[i : i+8]
		binary.LittleEndian.PutUint64(d, maxWord(binary.LittleEndian.Uint64(d), binary.LittleEndian.Uint64(src[i:i+8])))
	}
	return nil
}

// EstimateMerged returns the estimate of s merged with other — what
// Clone, Merge and Estimate return — without writing either sketch.
// Greedy seed selection evaluates every marginal gain this way. Both
// sketches must share a precision; EstimateMerged panics otherwise,
// because its callers build every sketch at one precision and a
// mismatch is a programming error, not input error.
func (s *Sketch) EstimateMerged(other *Sketch) float64 {
	if other.precision != s.precision {
		panic(fmt.Errorf("hll: cannot merge precision %d into %d", other.precision, s.precision))
	}
	return estimate(s.registers, other.registers)
}

// Clone returns a deep copy.
func (s *Sketch) Clone() *Sketch {
	c := &Sketch{precision: s.precision, registers: make([]uint8, len(s.registers))}
	copy(c.registers, s.registers)
	return c
}

// Reset empties the sketch.
func (s *Sketch) Reset() {
	for i := range s.registers {
		s.registers[i] = 0
	}
}

// Estimate returns the approximate number of distinct items inserted,
// using the bias-corrected raw estimate with small-range linear counting,
// as in Flajolet et al.
func (s *Sketch) Estimate() float64 {
	return estimate(s.registers, s.registers)
}

// The register kernel. Every query estimate runs estimate: a cell-wise
// maximum of two register arrays, eight registers per 64-bit word, and
// the estimator's sums over the result, without writing anything. The
// word-wise maximum and the zero count rest on one precondition: every
// register is below 128. Split caps ranks at 65−precision, SetRegister and UnmarshalBinary
// refuse anything above that cap, and vhll's decoder does the same for
// the versioned sketches that collapse into these registers.
const (
	low7 = 0x7f7f7f7f7f7f7f7f // 0x7f in every byte
	high = 0x8080808080808080 // the top bit of every byte
)

// maxRank is the highest rank Split produces at precision p.
func maxRank(p uint8) uint8 { return 65 - p }

// maxWord returns the byte-wise maximum of eight registers a and eight
// registers b. Each byte of (a | high) − b is (128 + a_i) − b_i, between
// 1 and 255 because a_i, b_i < 128, so no byte borrows from the next and
// its top bit is set exactly where a_i ≥ b_i.
func maxWord(a, b uint64) uint64 {
	ge := ((a | high) - b) & high
	pick := (ge >> 7) * 0xff // 0xff where a_i ≥ b_i
	return a&pick | b&^pick
}

// exp2neg[r] = 2^−r for every possible register value. Ranks are exact
// binary exponents, so the table entries are the same float64s math.Exp2
// produces call by call.
var exp2neg = func() (t [256]float64) {
	for i := range t {
		t[i] = math.Exp2(-float64(i))
	}
	return t
}()

// estimate runs the HyperLogLog estimator over the cell-wise maximum of
// a and b, two register arrays of one sketch length (2^p ≥ 16, a whole
// number of words); a == b estimates a alone. It sums 2^−r in register
// order, so the estimate is the float64 a register-at-a-time loop over
// the merged array gives.
func estimate(a, b []uint8) float64 {
	b = b[:len(a)]
	var sum float64
	zeros := 0
	for i := 0; i+8 <= len(a); i += 8 {
		w := maxWord(binary.LittleEndian.Uint64(a[i:i+8]), binary.LittleEndian.Uint64(b[i:i+8]))
		// Every byte is below 128, so adding 0x7f to it never carries
		// into the next: the top bit of w + low7 is clear exactly in the
		// zero bytes.
		zeros += bits.OnesCount64(^(w + low7) & high)
		// The additions run left to right, one register at a time.
		sum = sum + exp2neg[uint8(w)] + exp2neg[uint8(w>>8)] + exp2neg[uint8(w>>16)] + exp2neg[uint8(w>>24)] +
			exp2neg[uint8(w>>32)] + exp2neg[uint8(w>>40)] + exp2neg[uint8(w>>48)] + exp2neg[uint8(w>>56)]
	}
	m := float64(len(a))
	raw := alpha(len(a)) * m * m / sum
	// Small-range correction: fall back to linear counting while any cell
	// is still empty and the raw estimate is below the 5/2·m threshold.
	if raw <= 2.5*m && zeros > 0 {
		return m * math.Log(m/float64(zeros))
	}
	return raw
}

// alpha is the bias-correction constant α_m from Flajolet et al.
func alpha(m int) float64 {
	switch m {
	case 16:
		return 0.673
	case 32:
		return 0.697
	case 64:
		return 0.709
	default:
		return 0.7213 / (1 + 1.079/float64(m))
	}
}

// MemoryBytes returns the payload size of the sketch: one byte per cell.
func (s *Sketch) MemoryBytes() int { return len(s.registers) }

// Hash64 maps a 64-bit value to a well-mixed 64-bit hash using the
// splitmix64 finalizer. It is deterministic across runs, which keeps every
// experiment in this repository reproducible.
func Hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// HashString maps a string to a 64-bit hash (FNV-1a folded through
// Hash64), for callers whose items are external identifiers.
func HashString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return Hash64(h)
}
