package main

import (
	"fmt"
	"math"
	"time"
)

// segment is one stretch of an open-loop feed at a constant rate: edge
// i of the segment is due at Start + (i−First)/Rate, whether or not the
// system kept up with the edges before it.
type segment struct {
	Rate  float64       // edges per second
	Start time.Duration // due time of the first edge, from the feed start
	First int           // global index of the first edge
	N     int           // edges in the segment
}

// newSegment returns the segment that follows prev (or starts the feed
// when prev is nil) at rate edges/s for d.
func newSegment(prev *segment, rate float64, d time.Duration) segment {
	s := segment{Rate: rate, N: int(math.Round(rate * d.Seconds()))}
	if s.N < 1 {
		s.N = 1
	}
	if prev != nil {
		s.Start, s.First = prev.End(), prev.First+prev.N
	}
	return s
}

// Due returns edge i's due time; i must lie in the segment.
func (s segment) Due(i int) time.Duration {
	return s.Start + time.Duration(float64(i-s.First)/s.Rate*float64(time.Second))
}

// End is when the segment's schedule ends: the due time of the edge
// after its last.
func (s segment) End() time.Duration { return s.Due(s.First + s.N) }

// Contains reports whether global edge index i belongs to the segment.
func (s segment) Contains(i int) bool { return i >= s.First && i < s.First+s.N }

// lateness is how far behind its schedule an open-loop generator sent
// one request: send − due, never negative (nothing is sent early).
func lateness(send, due time.Duration) time.Duration {
	if send < due {
		return 0
	}
	return send - due
}

// pub is one observed publish: when it became queryable (from the feed
// start), how many edges of its shard's substream it covers, and how
// many edges the feeder had pushed to that shard by then.
type pub struct {
	At      time.Duration
	Covered int64
	Pushed  int64
}

// freshener turns a shard's publishes into per-edge freshness: edge j of
// the shard's substream is fresh at the first publish covering more than
// j edges. Publishes arrive in order, so each edge is assigned once.
type freshener struct {
	edges []int32 // global edge index of each substream position
	next  int     // first substream position not yet covered
}

// cover writes, into fresh (indexed by global edge, ms), the freshness
// of every substream edge the publish covers.
func (f *freshener) cover(p pub, due func(int) time.Duration, fresh []float32) {
	for ; f.next < len(f.edges) && int64(f.next) < p.Covered; f.next++ {
		g := int(f.edges[f.next])
		fresh[g] = float32(p.At-due(g)) / float32(time.Millisecond)
	}
}

// isNaN reports whether an edge's freshness is still unset.
func isNaN(f float32) bool { return f != f }

// verdict is a ladder rung's outcome.
type verdict int

const (
	pending verdict = iota
	passed
	failed
)

// judgeRung decides one ladder rung at time now (from the feed start).
// The rung passes when its edges reached a query with freshness p99 at
// most objective and the backlog (pushed − covered, sampled right after
// publishes) grew by no more than one checkpoint interval's worth of
// edges across it. It stays pending while its edges
// may still be covered in time; an edge still uncovered objective after
// the rung ended counts as missing the objective.
func judgeRung(seg segment, fresh []float32, pubs []pub, interval, objective, now time.Duration) (verdict, string) {
	late := now > seg.End()+objective
	// Edges are covered in order: the rung is complete once its last is.
	if isNaN(fresh[seg.First+seg.N-1]) && !late {
		return pending, ""
	}
	obj := float32(objective) / float32(time.Millisecond)
	over := 0
	for i := seg.First; i < seg.First+seg.N; i++ {
		f := fresh[i]
		switch {
		case isNaN(f) && !late:
			return pending, ""
		case isNaN(f) || f > obj:
			over++
		}
	}
	// p99 ≤ objective ⇔ at most 1% of the rung's edges exceed it.
	if float64(over) > 0.01*float64(seg.N) {
		return failed, fmt.Sprintf("%d of %d edges over the freshness objective", over, seg.N)
	}
	// The backlog right after a publish (edges pushed but not covered) is
	// the trough of its sawtooth; compare the troughs of the last publish
	// before the rung and the last one inside it.
	trough := func(t time.Duration) (int64, bool) {
		var b int64
		ok := false
		for _, p := range pubs {
			if p.At > t {
				break
			}
			b, ok = p.Pushed-p.Covered, true
		}
		return b, ok
	}
	b0, ok0 := trough(seg.Start)
	b1, ok1 := trough(seg.End())
	growth := b1 - b0
	if ok0 && ok1 && float64(growth) > seg.Rate*interval.Seconds() {
		return failed, fmt.Sprintf("backlog grew by %d edges", growth)
	}
	return passed, fmt.Sprintf("backlog %+d, %d of %d edges over", growth, over, seg.N)
}
