package core_test

import (
	"fmt"

	"ipin/internal/core"
	"ipin/internal/graph"
)

// The paper's Figure 1a network, end to end: exact summaries, oracle
// query, and greedy seed selection.
func Example() {
	l := graph.New(6)
	const a, b, c, d, e, f = 0, 1, 2, 3, 4, 5
	l.Add(a, d, 1)
	l.Add(e, f, 2)
	l.Add(d, e, 3)
	l.Add(e, b, 4)
	l.Add(a, b, 5)
	l.Add(b, e, 6)
	l.Add(e, c, 7)
	l.Add(b, c, 8)
	l.Sort()

	s := core.ComputeExact(l, 3)
	fmt.Println("|σ(a)| =", s.IRSSize(a))
	lambda, _ := s.Lambda(a, e)
	fmt.Println("λ(a,e) =", lambda)

	oracle := core.NewExactOracle(s)
	fmt.Println("spread({a,e}) =", oracle.Spread([]graph.NodeID{a, e}))

	seeds := oracle.TopK(1)
	fmt.Println("top influencer:", seeds[0])
	// Output:
	// |σ(a)| = 4
	// λ(a,e) = 3
	// spread({a,e}) = 5
	// top influencer: 0
}
