package serve

import (
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"testing"

	"ipin/internal/core"
	"ipin/internal/graph"
)

// twoSnapshots returns two summary sets over the same node range whose
// answers differ: different random logs, so different top-k seeds and
// spreads.
func twoSnapshots(t *testing.T) (a, b *core.ApproxSummaries) {
	t.Helper()
	build := func(seed int64) *core.ApproxSummaries {
		rng := rand.New(rand.NewSource(seed))
		l := graph.New(64)
		for i := 0; i < 600; i++ {
			l.Add(graph.NodeID(rng.Intn(64)), graph.NodeID(rng.Intn(64)), graph.Time(i+1))
		}
		l.Sort()
		s, err := core.ComputeApprox(l, 200, core.DefaultPrecision)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	return build(1), build(2)
}

// bodiesOf answers every path from a cache-less server holding only sum.
func bodiesOf(t *testing.T, sum *core.ApproxSummaries, paths []string) map[string]string {
	t.Helper()
	s := New(Config{})
	s.LoadApprox(sum)
	h := s.Handler()
	out := make(map[string]string, len(paths))
	for _, p := range paths {
		code, _, body := get(t, h, p)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", p, code, body)
		}
		out[p] = body
	}
	return out
}

// TestResponsesNeverMixSnapshots alternates two snapshots under clients
// querying /topk and /spread with the cache off. Every body must be the
// one snapshot A or snapshot B alone gives: a /topk that picked its
// seeds on one snapshot and evaluated their spread on the next matches
// neither.
func TestResponsesNeverMixSnapshots(t *testing.T) {
	a, b := twoSnapshots(t)
	paths := []string{"/topk?k=3", "/topk?k=5", "/spread?seeds=1,2,3,5,8,13,21,34"}
	wantA, wantB := bodiesOf(t, a, paths), bodiesOf(t, b, paths)
	for _, p := range paths {
		if wantA[p] == wantB[p] {
			t.Fatalf("%s answers the same on both snapshots; the test cannot see a mix", p)
		}
	}

	s := New(Config{})
	s.LoadApprox(a)
	h := s.Handler()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				p := paths[i%len(paths)]
				code, _, body := get(t, h, p)
				if code != http.StatusOK || (body != wantA[p] && body != wantB[p]) {
					t.Errorf("%s: %d %q is neither snapshot's answer\n A: %q\n B: %q", p, code, body, wantA[p], wantB[p])
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		if i%2 == 0 {
			s.LoadApprox(b)
		} else {
			s.LoadApprox(a)
		}
	}
	close(done)
	wg.Wait()
}

// TestViewOutlivesReload: a view taken before a reload keeps answering
// every route with the old snapshot's bytes — installs never touch a
// published snapshot — while new requests see the new one.
func TestViewOutlivesReload(t *testing.T) {
	a, b := twoSnapshots(t)
	paths := []string{
		"/influence?node=7",
		"/spread?seeds=3,1,2",
		"/topk?k=4",
		"/spreadby?seeds=0,9&deadline=300",
		"/spreadwindow?seeds=0,9&at=100",
		"/spreadwindow?seeds=0,9&at=100&horizon=50",
		"/stats",
	}
	wantA, wantB := bodiesOf(t, a, paths), bodiesOf(t, b, paths)

	s := New(Config{CacheSize: 16})
	s.LoadApprox(a)
	v := s.current()
	s.LoadApprox(b)
	for _, p := range paths {
		u, err := url.Parse(p)
		if err != nil {
			t.Fatal(err)
		}
		var rt route
		for _, q := range queryRoutes {
			if q.path == u.Path {
				rt = q.rt
			}
		}
		_, compute, err := rt(v, u.Query())
		if err != nil {
			t.Fatalf("%s on the old view: %v", p, err)
		}
		body, err := compute()
		if err != nil {
			t.Fatalf("%s on the old view: %v", p, err)
		}
		got, err := marshalBody(body)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != wantA[p] {
			t.Errorf("%s on the view taken before the reload:\n got  %s want %s", p, got, wantA[p])
		}
		if _, _, now := get(t, s.Handler(), p); now != wantB[p] {
			t.Errorf("%s after the reload:\n got  %s want %s", p, now, wantB[p])
		}
	}
}
