package main

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfSecondsSubtractsChildCoverageOnce(t *testing.T) {
	spans := []span{
		{name: "pass", parent: -1, start: ms(0), end: ms(100)},
		{name: "core.hs", parent: 0, start: ms(10), end: ms(40)},
		// Overlapping children count their union once: 50..80.
		{name: "engine", parent: 0, start: ms(50), end: ms(70)},
		{name: "engine", parent: 0, start: ms(60), end: ms(80)},
		// A grandchild reduces its parent's self time, not the root's.
		{name: "equiv.verify", parent: 1, start: ms(20), end: ms(30)},
	}
	self := selfSeconds(spans)
	want := map[string]float64{
		"pass":         0.040, // 100 - 30 - 30
		"core.hs":      0.020, // 30 - 10
		"engine":       0.040, // 20 + 20, both leaves
		"equiv.verify": 0.010,
	}
	for name, w := range want {
		if math.Abs(self[name]-w) > 1e-9 {
			t.Errorf("self[%s] = %v, want %v", name, self[name], w)
		}
	}
}

func TestSelfSecondsClipsChildrenToParent(t *testing.T) {
	spans := []span{
		{name: "p", parent: -1, start: ms(10), end: ms(20)},
		{name: "c", parent: 0, start: ms(5), end: ms(15)},
	}
	if got := selfSeconds(spans)["p"]; math.Abs(got-0.005) > 1e-9 {
		t.Errorf("self[p] = %v, want 0.005", got)
	}
}

func TestTracerNestsSpansAndNilTracerRecordsNothing(t *testing.T) {
	tr := &tracer{t0: time.Now()}
	root := tr.begin("pass")
	a := tr.begin("a")
	tr.begin("b") // left open: closing a closes it too
	tr.end(a)
	c := tr.begin("c")
	tr.end(c)
	tr.end(root)
	parents := map[string]int{}
	for _, s := range tr.spans {
		parents[s.name] = s.parent
		if s.end < s.start {
			t.Errorf("span %s ends before it starts", s.name)
		}
	}
	if parents["pass"] != -1 || parents["a"] != 0 || parents["b"] != 1 || parents["c"] != 0 {
		t.Errorf("parents = %v", parents)
	}
	if len(tr.open) != 0 {
		t.Errorf("%d spans left open", len(tr.open))
	}

	var none *tracer
	none.end(none.begin("x"))
}

func TestWriteTraceIsLoadableTraceEventJSON(t *testing.T) {
	var buf bytes.Buffer
	passes := [][]span{
		{{name: "pass", parent: -1, start: ms(0), end: ms(2)}, {name: "dsl.parse", parent: 0, start: ms(1), end: ms(2)}},
		{{name: "pass", parent: -1, start: ms(3), end: ms(4)}},
	}
	if err := writeTrace(&buf, passes); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			Tid  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	var complete int
	for _, ev := range file.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		complete++
		if ev.Name == "dsl.parse" && (ev.Args["parent"] != "pass" || ev.Ts != 1000 || ev.Dur != 1000 || ev.Tid != 1) {
			t.Errorf("dsl.parse event = %+v", ev)
		}
	}
	if complete != 3 {
		t.Errorf("%d complete events, want 3", complete)
	}
}
