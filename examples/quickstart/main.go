// Quickstart walks through the paper's running example: the toy
// interaction network of Figure 1a. It computes the exact IRS summaries
// with ω = 3 (reproducing the worked Example 2 table), compares them with
// the sketch estimates, and queries the influence oracle.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"ipin"
)

func main() {
	// Build Figure 1a: nodes a..f, interactions (a,d,1), (e,f,2), (d,e,3),
	// (e,b,4), (a,b,5), (b,e,6), (e,c,7), (b,c,8).
	names := []string{"a", "b", "c", "d", "e", "f"}
	net := ipin.NewNetwork(len(names))
	type edge struct {
		src, dst ipin.NodeID
		at       ipin.Time
	}
	const a, b, c, d, e, f = 0, 1, 2, 3, 4, 5
	for _, x := range []edge{
		{a, d, 1}, {e, f, 2}, {d, e, 3}, {e, b, 4},
		{a, b, 5}, {b, e, 6}, {e, c, 7}, {b, c, 8},
	} {
		net.Add(x.src, x.dst, x.at)
	}
	net.Sort()

	// Exact IRS with window ω = 3 — the paper's Example 2.
	const omega = 3
	exact := ipin.ComputeExact(net, omega)
	fmt.Printf("Exact IRS summaries (ω = %d):\n", omega)
	for u := 0; u < len(names); u++ {
		fmt.Printf("  ϕ(%s) = {", names[u])
		first := true
		for _, v := range exact.IRS(ipin.NodeID(u)) {
			if !first {
				fmt.Print(", ")
			}
			lambda, _ := exact.Lambda(ipin.NodeID(u), v)
			fmt.Printf("(%s,%d)", names[v], lambda)
			first = false
		}
		fmt.Println("}")
	}

	// The sketch-based variant estimates the same sizes.
	approx, err := ipin.ComputeApprox(net, omega, ipin.DefaultPrecision)
	if err != nil {
		panic(err)
	}
	fmt.Println("\nExact vs estimated |σ(u)|:")
	for u := 0; u < len(names); u++ {
		fmt.Printf("  %s: exact %d, estimate %.2f\n",
			names[u], exact.IRSSize(ipin.NodeID(u)), approx.EstimateIRS(ipin.NodeID(u)))
	}

	// Influence oracle: combined reach of a seed set.
	oracle := ipin.NewExactOracle(exact)
	fmt.Printf("\nspread({a})   = %.0f\n", oracle.Spread([]ipin.NodeID{a}))
	fmt.Printf("spread({a,e}) = %.0f\n", oracle.Spread([]ipin.NodeID{a, e}))

	// Top-k influencers via the greedy Algorithm 4, on the oracle's index.
	seeds := oracle.TopK(2)
	fmt.Printf("\ntop-2 influencers: %s, %s\n", names[seeds[0]], names[seeds[1]])

	// And a cascade simulation over the same network.
	spread := ipin.AverageSpread(net, seeds, ipin.CascadeConfig{Omega: omega, P: 1, Seed: 1}, 10, 2)
	fmt.Printf("TCIC spread of those seeds (p=1): %.1f nodes\n", spread)
}
