package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside it. Spans
// of one edge or query share its index as ID; Parent names the
// enclosing span with the same ID, if any.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spans records spans in memory for the traced run; a nil *spans
// records nothing, which is what untraced runs pass.
type spans struct {
	t0   time.Time
	mu   sync.Mutex
	list []span
}

// newSpans returns a recorder whose stamps are offsets from t0.
func newSpans(t0 time.Time) *spans { return &spans{t0: t0} }

// begin returns the start stamp for a span (0 when not recording).
func (s *spans) begin() int64 {
	if s == nil {
		return 0
	}
	return int64(time.Since(s.t0))
}

// end records the span that began at start.
func (s *spans) end(name string, id int64, parent string, start int64) {
	if s == nil {
		return
	}
	now := int64(time.Since(s.t0))
	s.mu.Lock()
	s.list = append(s.list, span{Name: name, ID: id, Parent: parent, Start: start, End: now})
	s.mu.Unlock()
}

// add records a span with explicit bounds.
func (s *spans) add(sp span) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.list = append(s.list, sp)
	s.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (s *spans) snapshot() []span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]span(nil), s.list...)
}

// durations returns the durations of every span named name, in ms.
func durations(list []span, name string) []float64 {
	var out []float64
	for _, sp := range list {
		if sp.Name == name {
			out = append(out, float64(sp.dur())/float64(time.Millisecond))
		}
	}
	return out
}

// selfTimes returns, for every span named name, its duration minus the
// part of its interval covered by its children (spans naming it as
// Parent with the same ID), in ms.
func selfTimes(list []span, name string) []float64 {
	type key struct {
		name string
		id   int64
	}
	kids := map[key][]span{}
	for _, sp := range list {
		if sp.Parent != "" {
			k := key{sp.Parent, sp.ID}
			kids[k] = append(kids[k], sp)
		}
	}
	var out []float64
	for _, sp := range list {
		if sp.Name != name {
			continue
		}
		covered := int64(0)
		for _, c := range kids[key{sp.Name, sp.ID}] {
			lo, hi := max(c.Start, sp.Start), min(c.End, sp.End)
			if hi > lo {
				covered += hi - lo
			}
		}
		out = append(out, float64(sp.End-sp.Start-covered)/float64(time.Millisecond))
	}
	return out
}

// writeSpans writes the spans as JSON lines to path.
func writeSpans(path string, list []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range list {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
