package main

import (
	"math"
	"regexp"
	"sort"
)

// minTail is how many samples must lie beyond a reported tail
// percentile; with fewer, the tail is omitted rather than guessed.
const minTail = 10

// dist is one timing distribution reduced to what the benchmark
// reports: its sample count, median, maximum, and the 99th percentile —
// the latter only when at least minTail samples lie beyond it.
type dist struct {
	N      int     `json:"n"`
	P50    float64 `json:"p50"`
	P99    float64 `json:"p99,omitempty"`
	HasP99 bool    `json:"has_p99"`
	Max    float64 `json:"max"`
}

// rankIndex is the nearest-rank index of quantile q among n sorted
// samples.
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// summarize reduces samples to a dist. The input is not modified.
func summarize(v []float64) dist {
	if len(v) == 0 {
		return dist{}
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	d := dist{N: n, P50: s[rankIndex(n, 0.5)], Max: s[n-1]}
	if i := rankIndex(n, 0.99); n-1-i >= minTail {
		d.P99, d.HasP99 = s[i], true
	}
	return d
}

// quietMedian returns the median of values over the half of them
// (rounded up) with the smallest stolen share: stolen[k] is the share of
// the CPU time the process wanted that the hypervisor gave to other
// guests while values[k] was measured. On a shared virtual machine steal
// delays whatever it falls on; it is the host, not the program, so the
// units it hit hardest are set aside. Without steal every unit is as
// quiet as any other and the choice is arbitrary.
func quietMedian(values, stolen []float64) float64 {
	idx := make([]int, len(values))
	for k := range idx {
		idx[k] = k
	}
	sort.SliceStable(idx, func(i, j int) bool { return stolen[idx[i]] < stolen[idx[j]] })
	var quiet []float64
	for _, k := range idx[:(len(idx)+1)/2] {
		quiet = append(quiet, values[k])
	}
	return median(quiet)
}

// median returns the median of v by nearest rank, 0 when empty.
func median(v []float64) float64 { return summarize(v).P50 }

// namePattern is the shape every metric and workload name must have.
var namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether s may name a metric or workload.
func validName(s string) bool { return namePattern.MatchString(s) }
