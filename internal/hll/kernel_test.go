package hll

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// referenceEstimate is the estimator as a float64 loop over the registers
// one at a time, the form the word-wise kernel must reproduce bit for bit.
func referenceEstimate(registers []uint8) float64 {
	m := float64(len(registers))
	var sum float64
	zeros := 0
	for _, r := range registers {
		sum += math.Exp2(-float64(r))
		if r == 0 {
			zeros++
		}
	}
	raw := alpha(len(registers)) * m * m / sum
	if raw <= 2.5*m && zeros > 0 {
		return m * math.Log(m/float64(zeros))
	}
	return raw
}

// referenceMerge is the cell-wise maximum one register at a time.
func referenceMerge(dst, src []uint8) {
	for i, r := range src {
		if r > dst[i] {
			dst[i] = r
		}
	}
}

// randomRegisters returns 2^p registers drawn by one of two shapes: the
// ranks hashing produces (geometric, with empty cells) and uniform over
// every legal rank.
func randomRegisters(rng *rand.Rand, p int) []uint8 {
	rankCap := 65 - p
	regs := make([]uint8, 1<<p)
	geometric := rng.Intn(2) == 0
	fill := rng.Float64()
	for i := range regs {
		if rng.Float64() > fill {
			continue
		}
		if !geometric {
			regs[i] = uint8(rng.Intn(rankCap + 1))
			continue
		}
		r := 1
		for r < rankCap && rng.Intn(2) == 0 {
			r++
		}
		regs[i] = uint8(r)
	}
	return regs
}

// registerCases returns the fixed edge cases at precision p: all zero, all
// at the rank cap, and a single nonzero register at several ranks and
// places.
func registerCases(p int) map[string][]uint8 {
	n := 1 << p
	fill := func(r int) []uint8 {
		regs := make([]uint8, n)
		for i := range regs {
			regs[i] = uint8(r)
		}
		return regs
	}
	cases := map[string][]uint8{
		"zero": fill(0),
		"cap":  fill(65 - p),
	}
	for _, r := range []int{1, 2, 30, 65 - p} {
		for _, at := range []int{0, n / 2, n - 1} {
			regs := make([]uint8, n)
			regs[at] = uint8(r)
			cases[fmt.Sprintf("single-%d-at-%d", r, at)] = regs
		}
	}
	return cases
}

// sketchOf wraps registers in a sketch of precision p.
func sketchOf(p int, regs []uint8) *Sketch {
	return &Sketch{precision: uint8(p), registers: regs}
}

// randomTrials is how many random register arrays each precision gets:
// many where an array is small, a few at the largest precisions.
func randomTrials(p int) int {
	if p <= 12 {
		return 400
	}
	return 1 << (20 - p)
}

// TestEstimateMatchesFloatLoop holds the word-wise estimator to the
// register-at-a-time float64 loop bit for bit at every precision, on the
// edge cases and on random register arrays.
func TestEstimateMatchesFloatLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for p := MinPrecision; p <= MaxPrecision; p++ {
		check := func(name string, regs []uint8) {
			t.Helper()
			got, want := sketchOf(p, regs).Estimate(), referenceEstimate(regs)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("p=%d %s: estimate %v (%#x), float loop %v (%#x)", p, name, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		for name, regs := range registerCases(p) {
			check(name, regs)
		}
		for i := 0; i < randomTrials(p); i++ {
			check("random", randomRegisters(rng, p))
		}
	}
}

// TestMergeMatchesByteLoop holds the word-wise Merge to the register-at-
// a-time maximum, and EstimateMerged to Clone, Merge and Estimate, while
// writing neither input.
func TestMergeMatchesByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for p := MinPrecision; p <= MaxPrecision; p++ {
		for i := 0; i < randomTrials(p)/4+1; i++ {
			a, b := randomRegisters(rng, p), randomRegisters(rng, p)
			if i == 0 {
				a = registerCases(p)["cap"]
			}
			want := append([]uint8(nil), a...)
			referenceMerge(want, b)
			sa, sb := sketchOf(p, append([]uint8(nil), a...)), sketchOf(p, append([]uint8(nil), b...))
			est := sa.EstimateMerged(sb)
			if string(sa.registers) != string(a) || string(sb.registers) != string(b) {
				t.Fatalf("p=%d: EstimateMerged wrote its inputs", p)
			}
			merged := sa.Clone()
			if err := merged.Merge(sb); err != nil {
				t.Fatal(err)
			}
			if string(merged.registers) != string(want) {
				t.Fatalf("p=%d trial %d: word-wise Merge differs from the byte loop", p, i)
			}
			if math.Float64bits(est) != math.Float64bits(merged.Estimate()) {
				t.Fatalf("p=%d trial %d: EstimateMerged %v, Clone+Merge+Estimate %v", p, i, est, merged.Estimate())
			}
		}
	}
}

func TestEstimateMergedPrecisionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("EstimateMerged across precisions did not panic")
		}
	}()
	MustNew(9).EstimateMerged(MustNew(10))
}

// TestSetRegisterRejectsImpossibleRank pins the kernel's precondition
// where outside input enters a plain sketch: SetRegister takes the rank
// cap 65−p and panics above it, leaving the register as it was.
func TestSetRegisterRejectsImpossibleRank(t *testing.T) {
	for _, p := range []int{MinPrecision, 9, MaxPrecision} {
		s := MustNew(p)
		s.SetRegister(3, uint8(65-p))
		if got := s.Register(3); got != uint8(65-p) {
			t.Fatalf("p=%d: SetRegister(3, %d) left %d", p, 65-p, got)
		}
		for _, r := range []uint8{uint8(66 - p), 127, 128, 200, 255} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("p=%d: SetRegister(5, %d) did not panic", p, r)
					}
				}()
				s.SetRegister(5, r)
			}()
			if got := s.Register(5); got != 0 {
				t.Fatalf("p=%d: rejected SetRegister(5, %d) left %d", p, r, got)
			}
		}
	}
}
