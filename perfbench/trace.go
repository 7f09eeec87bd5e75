package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call made by the benchmark, around a client request
// or a call into one layer's public function. Times are nanoseconds
// since the tracer's epoch; Parent is 0 for a root span.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent,omitempty"`
	Req    int32  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced code paths pay only a nil check.
type tracer struct {
	epoch time.Time
	ids   atomic.Int32
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now returns the time since the epoch, for span bounds.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// id reserves a span id, so children can name a parent that is
// recorded after them.
func (t *tracer) id() int32 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

func (t *tracer) record(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs f inside a span named name and returns its duration in
// nanoseconds.
func (t *tracer) timed(name string, parent, req int32, f func()) int64 {
	start := time.Now()
	f()
	d := int64(time.Since(start))
	if t != nil {
		s := int64(start.Sub(t.epoch))
		t.record(span{ID: t.id(), Parent: parent, Req: req, Name: name, Start: s, End: s + d})
	}
	return d
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children. Children are clipped to their parent and
// overlapping children are counted once, so self time is never
// negative.
func selfTimes(spans []span) map[int32]int64 {
	kids := map[int32][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int32]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered int64
		cur := s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, cur), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}

// write saves the spans, one JSON object per line, with self time.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	self := selfTimes(t.spans)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(struct {
			span
			Self int64 `json:"self_ns"`
		}{s, self[s.ID]}); err != nil {
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
