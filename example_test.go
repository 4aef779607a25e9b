package ipin_test

// Runnable examples for the facade's main workflows: computing IRS
// summaries with a pinned worker count, saving and reloading the IRX1
// snapshot, and serving cached oracle queries over HTTP. Each compiles
// and runs under `go test -run Example`; their Output blocks are checked.

import (
	"bytes"
	"fmt"
	"net/http/httptest"

	"ipin"
)

// chainNetwork is the shared fixture: 0→1 at t=100 and 1→2 at t=200, so
// with ω=500 node 0 influences both 1 and 2 through the two-hop channel.
func chainNetwork() *ipin.Network {
	net := ipin.NewNetwork(3)
	net.Add(0, 1, 100)
	net.Add(1, 2, 200)
	net.Sort()
	return net
}

func ExampleSetParallelism() {
	// Pin the library's internal parallel phases (scans, oracle collapse,
	// seed selection) to two workers; zero restores the GOMAXPROCS
	// default. The worker count never changes any result.
	ipin.SetParallelism(2)
	defer ipin.SetParallelism(0)

	irs := ipin.ComputeExact(chainNetwork(), 500)
	oracle := ipin.NewExactOracle(irs)
	fmt.Println(oracle.InfluenceSize(0))
	// Output: 2
}

func ExampleReadApproxIRS() {
	// Compute sketched summaries once, persist them in the IRX1 snapshot
	// format, and reload: the loaded summaries answer identically. On
	// disk this is `cmd/irs -save irs.bin` and `-load irs.bin`.
	irs, err := ipin.ComputeApprox(chainNetwork(), 500, ipin.DefaultPrecision)
	if err != nil {
		fmt.Println(err)
		return
	}
	var snapshot bytes.Buffer
	if _, err := irs.WriteTo(&snapshot); err != nil {
		fmt.Println(err)
		return
	}
	loaded, err := ipin.ReadApproxIRS(&snapshot)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("ω=%d influence≈%.1f\n", loaded.Omega, ipin.NewApproxOracle(loaded).InfluenceSize(0))
	// Output: ω=500 influence≈2.0
}

func ExampleNewQueryServer() {
	// Serve the summaries through the query layer: admission control, a
	// result cache, and a live-reloadable snapshot behind plain
	// http.Handler routes. The second request is served from the cache —
	// byte-identical to the first, with the seed set canonicalized
	// (sorted, deduplicated) in both.
	srv := ipin.NewQueryServer(ipin.ServeConfig{CacheSize: 64})
	srv.LoadExact(ipin.ComputeExact(chainNetwork(), 500))
	handler := srv.Handler()

	for i := 0; i < 2; i++ {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest("GET", "/spread?seeds=2,0,1,0", nil))
		fmt.Print(rec.Body.String())
	}
	// Output:
	// {"seeds":[0,1,2],"spread":2}
	// {"seeds":[0,1,2],"spread":2}
}
