package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the tracer started; Parent is 0 for a root.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op returning span ID 0.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID for end and for children.
func (t *tracer) begin(layer, name string, op int64, parent int32) int32 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Layer: layer, Name: name, Start: now, End: -1})
	return id
}

func (t *tracer) end(id int32) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// snapshot returns the finished spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// layerTime is one row of the self-time ladder.
type layerTime struct {
	Layer string
	Spans int
	Total time.Duration
	Self  time.Duration
}

// selfTimes sums, per layer, span durations and self time: a span's
// duration minus the part of its interval that its children cover.
// Children may overlap one another (a sweep's concurrent workers), so
// the covered part is the union of their intervals, clipped to the
// parent's.
func selfTimes(spans []span) []layerTime {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := make(map[string]*layerTime)
	for _, s := range spans {
		r := rows[s.Layer]
		if r == nil {
			r = &layerTime{Layer: s.Layer}
			rows[s.Layer] = r
		}
		d := s.End - s.Start
		r.Spans++
		r.Total += time.Duration(d)
		r.Self += time.Duration(d - covered(s.Start, s.End, children[s.ID]))
	}
	out := make([]layerTime, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// covered returns the length of the union of the children's intervals
// within [start, end).
func covered(start, end int64, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, start), min(k.End, end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total int64
	curA, curB := int64(0), int64(-1)
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// writeSpans writes one JSON span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
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

// printLadder writes the self-time table, largest self time first.
func printLadder(w io.Writer, rows []layerTime) {
	var all time.Duration
	for _, r := range rows {
		all += r.Self
	}
	fmt.Fprintf(w, "%-10s %8s %12s %12s %7s\n", "layer", "spans", "total_ms", "self_ms", "self%")
	for _, r := range rows {
		pct := 0.0
		if all > 0 {
			pct = 100 * float64(r.Self) / float64(all)
		}
		fmt.Fprintf(w, "%-10s %8d %12.3f %12.3f %7.2f\n", r.Layer, r.Spans,
			float64(r.Total)/1e6, float64(r.Self)/1e6, pct)
	}
}
