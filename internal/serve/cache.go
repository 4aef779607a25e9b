package serve

import (
	"container/list"
	"context"
	"sync"
	"time"
)

// cache is a bounded LRU over rendered response bodies with single-flight
// deduplication: the first request for a key computes while concurrent
// requests for the same key wait on the entry and share the bytes.
// Entries are keyed on (route, canonical parameters, snapshot
// generation), so a reload can never serve stale bodies — old-generation
// keys simply stop being asked for (and purge drops them eagerly).
type cache struct {
	max int
	mu  sync.Mutex
	ll  *list.List // front = most recently used
	idx map[string]*list.Element
	mx  *metrics
}

// entry is one cache slot. done is closed when body/err are final; until
// then followers wait (bounded by their request context).
type entry struct {
	key  string
	done chan struct{}
	body []byte
	err  error
}

func newCache(max int, mx *metrics) *cache {
	return &cache{
		max: max,
		ll:  list.New(),
		idx: make(map[string]*list.Element, max),
		mx:  mx,
	}
}

// do returns the body for key, computing it with fn on a miss. Identical
// concurrent misses compute once; followers wait for the leader or give
// up when ctx ends or the deadline passes. Errors are never cached: the
// failed entry is removed so the next request retries.
func (c *cache) do(ctx context.Context, deadline time.Time, key string, fn func() ([]byte, error)) ([]byte, error) {
	c.mu.Lock()
	if el, ok := c.idx[key]; ok {
		e := el.Value.(*entry)
		c.ll.MoveToFront(el)
		c.mu.Unlock()
		select {
		case <-e.done:
		default:
			// Leader still computing: this request shares its result.
			c.mx.shared.Inc()
			ctx, cancel := context.WithDeadline(ctx, deadline)
			defer cancel()
			select {
			case <-e.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		if e.err != nil {
			return nil, e.err
		}
		c.mx.hits.Inc()
		return e.body, nil
	}
	// Miss: insert the in-flight entry, then compute outside the lock.
	c.mx.misses.Inc()
	e := &entry{key: key, done: make(chan struct{})}
	el := c.ll.PushFront(e)
	c.idx[key] = el
	for c.ll.Len() > c.max {
		c.evict(c.ll.Back())
	}
	c.mu.Unlock()

	e.body, e.err = fn()
	close(e.done)
	if e.err != nil {
		c.mu.Lock()
		// Drop the failed entry unless a purge/evict already did.
		if cur, ok := c.idx[key]; ok && cur == el {
			c.evict(el)
		}
		c.mu.Unlock()
	}
	return e.body, e.err
}

// evict removes one element; callers hold the lock. Evicting an in-flight
// entry is safe: its followers hold the *entry and still see the result,
// the key is just recomputable again.
func (c *cache) evict(el *list.Element) {
	if el == nil {
		return
	}
	c.ll.Remove(el)
	delete(c.idx, el.Value.(*entry).key)
	c.mx.evictions.Inc()
}

// purge empties the cache (after a snapshot reload). No-op on nil.
func (c *cache) purge() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.ll.Init()
	c.idx = make(map[string]*list.Element, c.max)
	c.mu.Unlock()
	c.mx.purges.Inc()
}

// len reports the live entry count (tests and the size gauge).
func (c *cache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	n := c.ll.Len()
	c.mu.Unlock()
	return n
}
