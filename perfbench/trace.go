package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one timed layer call of a traced pass. Offsets are relative to
// the tracer's start; parent is the index of the enclosing span, -1 for a
// root.
type span struct {
	name       string
	parent     int
	start, end time.Duration
}

// tracer keeps the spans of traced passes in memory. The benchmark calls
// into the layers from one goroutine, so the innermost open span is the
// parent of the next one. A nil *tracer records nothing: untraced passes
// pay one nil check per layer call.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

// begin opens a span named name under the innermost open span and returns
// its handle for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.t0)})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned, and any span opened inside it that
// is still open.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	for len(t.open) > 0 {
		top := t.open[len(t.open)-1]
		t.open = t.open[:len(t.open)-1]
		t.spans[top].end = now
		if top == id {
			return
		}
	}
}

// selfSeconds sums, per span name, each span's duration minus the part of
// its interval that its child spans cover. Children may overlap each
// other; the covered part counts once.
func selfSeconds(spans []span) map[string]float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make(map[string]float64)
	for i, s := range spans {
		self := s.end - s.start - covered(s, children[i])
		out[s.name] += self.Seconds()
	}
	return out
}

// covered returns how much of parent's interval the union of kids spans.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := append([]span(nil), kids...)
	sort.Slice(iv, func(i, j int) bool { return iv[i].start < iv[j].start })
	var total time.Duration
	curStart, curEnd := time.Duration(-1), time.Duration(-1)
	for _, k := range iv {
		s, e := max(k.start, parent.start), min(k.end, parent.end)
		if e <= s {
			continue
		}
		if s > curEnd {
			total += curEnd - curStart
			curStart, curEnd = s, e
			continue
		}
		curEnd = max(curEnd, e)
	}
	return total + curEnd - curStart
}

// traceEvent is one record of the Chrome trace-event format, the format
// the repository's -trace-out flags write; Perfetto and chrome://tracing
// load it.
type traceEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// writeTrace writes the spans of each pass on a track of its own, as
// complete ("X") events with microsecond times, naming each span's parent
// in its args.
func writeTrace(w io.Writer, passes [][]span) error {
	events := []traceEvent{{
		Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]string{"name": "perfbench"},
	}}
	for i, spans := range passes {
		tid := i + 1
		events = append(events, traceEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
			Args: map[string]string{"name": fmt.Sprintf("traced pass %d", tid)},
		})
		for _, s := range spans {
			ev := traceEvent{
				Name: s.name, Ph: "X", Pid: 1, Tid: tid,
				Ts:  float64(s.start.Nanoseconds()) / 1e3,
				Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			}
			if s.parent >= 0 {
				ev.Args = map[string]string{"parent": spans[s.parent].name}
			}
			events = append(events, ev)
		}
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{events, "ms"})
}
