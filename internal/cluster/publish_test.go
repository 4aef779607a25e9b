package cluster

import (
	"context"
	"testing"
	"time"
)

// TestShardPublishesTrailGenerations: a shard counts a publish only
// after its Publish callback returned, and the callback is what bumps
// the shard's gather generation, so sampling Stats() first and
// Generations() second never sees Publishes ahead — while interval
// checkpoints and the publishes between them race the sampler. Once the
// cluster is closed the two agree exactly.
func TestShardPublishesTrailGenerations(t *testing.T) {
	const shards = 2
	cfg := testStreamConfig()
	cfg.CheckpointEvery = 10 * time.Millisecond
	c, err := New(Config{Shards: shards, Dir: t.TempDir(), Stream: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(context.Background())
	edges := bipartite(4000, 83, DefaultSlotMap(shards), 0)
	fed := make(chan error, 1)
	go func() {
		for i, e := range edges {
			if err := c.Push(e); err != nil {
				fed <- err
				return
			}
			if i%50 == 49 {
				time.Sleep(time.Millisecond)
			}
		}
		fed <- nil
	}()
	check := func() {
		for i := 0; i < shards; i++ {
			pubs := c.Shard(i).Stats().Publishes
			if gen := c.Gather().Generations()[i]; uint64(pubs) > gen {
				t.Fatalf("shard %d: Stats().Publishes %d ahead of its generation %d", i, pubs, gen)
			}
		}
	}
	for feeding := true; feeding; {
		select {
		case err := <-fed:
			if err != nil {
				t.Fatal(err)
			}
			feeding = false
		default:
			check()
		}
	}
	if err := c.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	gens := c.Gather().Generations()
	for i := 0; i < shards; i++ {
		if pubs := c.Shard(i).Stats().Publishes; uint64(pubs) != gens[i] {
			t.Fatalf("shard %d after Close: %d publishes, generation %d", i, pubs, gens[i])
		}
	}
	if st := c.Stats(); st.Publishes <= st.Checkpoints || uint64(st.Publishes) != c.Gather().Generation() {
		t.Fatalf("cluster stats %+v, generation %d: want publishes between checkpoints, summed", st, c.Gather().Generation())
	}
}
