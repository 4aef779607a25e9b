package core

import (
	"ipin/internal/graph"
	"ipin/internal/par"
)

// exactIndex is the query layout of exact summaries: σω(u) as row u of a
// compressed sparse row table, targets[offsets[u]:offsets[u+1]], built
// once from Phi. Selection and the exact oracle mark coverage over it in
// a bitset of width bits, one past the largest id any row names — Phi
// is public, so a hand-built row may name ids ≥ len(Phi). The index is
// never stored on ExactSummaries: it lives in the oracle or the
// selection call that built it.
type exactIndex struct {
	offsets []int
	targets []uint32
	width   int
}

// newExactIndex builds the index of s, filling rows with up to workers
// goroutines.
func newExactIndex(s *ExactSummaries, workers int) *exactIndex {
	n := len(s.Phi)
	ix := &exactIndex{offsets: make([]int, n+1)}
	for u, phi := range s.Phi {
		ix.offsets[u+1] = ix.offsets[u] + len(phi)
	}
	ix.targets = make([]uint32, ix.offsets[n])
	blocks := par.Blocks(n, 4*workers)
	widths := par.Map(workers, len(blocks), func(b int) int {
		width := 0
		for u := blocks[b].Lo; u < blocks[b].Hi; u++ {
			i := ix.offsets[u]
			for v := range s.Phi[u] {
				ix.targets[i] = uint32(v)
				width = max(width, int(v)+1)
				i++
			}
		}
		return width
	})
	ix.width = n
	for _, w := range widths {
		ix.width = max(ix.width, w)
	}
	return ix
}

// row returns σω(u).
func (ix *exactIndex) row(u graph.NodeID) []uint32 {
	return ix.targets[ix.offsets[u]:ix.offsets[u+1]]
}

// sizes returns |σω(u)| for every node, the greedy scan's size order.
func (ix *exactIndex) sizes() []float64 {
	out := make([]float64, len(ix.offsets)-1)
	for u := range out {
		out[u] = float64(ix.offsets[u+1] - ix.offsets[u])
	}
	return out
}

// spread returns |⋃_{u∈S} σω(u)|, marking the union in one fresh bitset.
func (ix *exactIndex) spread(seeds []graph.NodeID) int {
	covered := newBitset(ix.width)
	n := 0
	for _, u := range seeds {
		n += covered.add(ix.row(u))
	}
	return n
}

// bitset is a set of node ids, one bit per id.
type bitset []uint64

func newBitset(width int) bitset { return make(bitset, (width+63)/64) }

// add inserts every id of row and returns how many were absent.
func (b bitset) add(row []uint32) int {
	n := 0
	for _, v := range row {
		w, bit := &b[v>>6], uint64(1)<<(v&63)
		if *w&bit == 0 {
			*w |= bit
			n++
		}
	}
	return n
}

// missing returns how many ids of row are absent, without inserting any.
func (b bitset) missing(row []uint32) int {
	n := 0
	for _, v := range row {
		n += int(^b[v>>6] >> (v & 63) & 1)
	}
	return n
}
