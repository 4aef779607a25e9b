// Emailnetwork discovers influencers in an Enron-like synthetic email
// network — the scenario the paper's introduction motivates: in a mail
// corpus we observe who mailed whom and when, nothing else, and want the
// accounts best positioned to spread information within a deadline.
//
// The example generates the network, builds sketched IRS summaries for
// three different windows, and shows how the top influencers change with
// the window — the paper's central observation (its Table 5).
//
// Run with:
//
//	go run ./examples/emailnetwork
package main

import (
	"fmt"

	"ipin"
)

func main() {
	cfg, err := ipin.GenDataset("enron", 100) // ~870 accounts, ~11.5k mails
	if err != nil {
		panic(err)
	}
	net, err := ipin.Generate(cfg)
	if err != nil {
		panic(err)
	}
	_, _, span := net.Span()
	fmt.Printf("generated email network: %d accounts, %d mails, %.0f days\n",
		net.NumNodes, net.Len(), float64(span)/86400)

	const k = 5
	type result struct {
		pct    float64
		seeds  []ipin.NodeID
		spread float64
	}
	var results []result
	for _, pct := range []float64{1, 10, 20} {
		omega := net.WindowFromPercent(pct)
		irs, err := ipin.ComputeApprox(net, omega, ipin.DefaultPrecision)
		if err != nil {
			panic(err)
		}
		oracle := ipin.NewApproxOracle(irs)
		seeds := oracle.TopK(k)
		results = append(results, result{pct: pct, seeds: seeds, spread: oracle.Spread(seeds)})

		fmt.Printf("\nwindow = %g%% of the time span (ω = %d ticks)\n", pct, omega)
		for i, u := range seeds {
			fmt.Printf("  %d. account %-5d individual reach %.0f\n", i+1, u, oracle.InfluenceSize(u))
		}
		fmt.Printf("  combined estimated reach: %.0f accounts\n", results[len(results)-1].spread)
	}

	// How stable are the seeds across windows? (The paper's Table 5:
	// short and long windows elect different influencers.)
	common := func(a, b []ipin.NodeID) int {
		in := map[ipin.NodeID]bool{}
		for _, u := range a {
			in[u] = true
		}
		n := 0
		for _, u := range b {
			if in[u] {
				n++
			}
		}
		return n
	}
	fmt.Printf("\nseed overlap: 1%%∩10%% = %d/%d, 1%%∩20%% = %d/%d, 10%%∩20%% = %d/%d\n",
		common(results[0].seeds, results[1].seeds), k,
		common(results[0].seeds, results[2].seeds), k,
		common(results[1].seeds, results[2].seeds), k)
}
