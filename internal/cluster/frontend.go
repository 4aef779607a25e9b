package cluster

import (
	"encoding/json"
	"net/http"

	"ipin/internal/serve"
)

// frontendCacheSize bounds the frontend's result cache in rendered
// bodies, the size a single-node live deployment (examples/livecascade)
// uses.
const frontendCacheSize = 1024

// NewFrontend returns the merged HTTP query surface over g: the
// single-node query server (internal/serve), with its result cache and
// default admission control, answering each request from one consistent
// View of the per-shard tables and keying the cache on the cluster
// generation. When the routing identity holds (package comment), the
// bytes on the wire are identical to a single-node server fed the whole
// stream — the property the identity tests assert against a real one.
// Queries answer 503 until the first shard checkpoint publishes.
//
// Beyond the single-node routes it serves GET /cluster/stats: the
// per-shard checkpoint generation vector and its skew, the operator's
// view of which shard is behind.
func NewFrontend(g *Gather) *serve.Server {
	s := serve.NewOver(serve.Config{CacheSize: frontendCacheSize, Registry: g.mx.reg}, g.current)
	s.Handle("/cluster/stats", g.serveStats)
	return s
}

// current is the frontend's view source: a consistent View once any
// shard has published, nil (503) before.
func (g *Gather) current() serve.View {
	v := g.View()
	if !v.Ready() {
		return nil
	}
	return v
}

// serveStats serves the topology/staleness document: how many shards,
// each shard's publish generation, and the skew between the most- and
// least-advanced shard — the number to alarm on when one shard lags.
func (g *Gather) serveStats(w http.ResponseWriter, _ *http.Request) {
	v := g.View()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"shards":          len(v.gens),
		"ready":           v.Ready(),
		"generation":      v.Generation(),
		"generations":     v.Generations(),
		"generation_skew": generationSkew(v.Generations()),
	})
}
