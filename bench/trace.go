package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// span is one call into a layer, recorded by the benchmark around the
// public function it calls. Times are host nanoseconds since the
// tracer's epoch; Virt is the virtual time the call advanced its
// machine.
type span struct {
	Name   string
	Op     int
	Parent int // index of the enclosing span within the op, -1 for none
	Start  int64
	End    int64
	Virt   int64
}

// spanTotals accumulates one span name's self times over every traced op.
type spanTotals struct {
	calls    int64
	hostSelf int64
	virtSelf int64
}

// tracer collects spans. Spans of one op are built on the op's own
// goroutine (opTrace) and folded into the totals when the op ends, so
// fleet workers trace concurrently without sharing an open-span stack.
// A nil *tracer and the nil *opTrace it hands out record nothing: the
// untraced path pays one nil check per span.
type tracer struct {
	now     func() int64
	keepOps int // ops whose raw spans are kept for the trace file

	mu     sync.Mutex
	ops    int
	totals map[string]*spanTotals
	raw    []laneSpan
	lanes  []bool // lane in use by an open op
}

// laneSpan is a raw span with its parent's name and the display lane
// its op ran on: ops that overlap in host time get different lanes, so
// the trace viewer nests every lane's spans properly.
type laneSpan struct {
	span
	ParentName string
	Lane       int
}

func newTracer(keepOps int) *tracer {
	epoch := time.Now()
	return &tracer{
		now:     func() int64 { return int64(time.Since(epoch)) },
		keepOps: keepOps,
		totals:  map[string]*spanTotals{},
	}
}

// opTrace is one op's spans while the op runs.
type opTrace struct {
	t     *tracer
	id    int
	lane  int
	spans []span
	open  []int
}

// beginOp starts tracing the next op.
func (t *tracer) beginOp() *opTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	o := &opTrace{t: t, id: t.ops, lane: len(t.lanes)}
	t.ops++
	for i, busy := range t.lanes {
		if !busy {
			o.lane = i
			break
		}
	}
	if o.lane == len(t.lanes) {
		t.lanes = append(t.lanes, false)
	}
	t.lanes[o.lane] = true
	return o
}

// start opens a span nested in the innermost open one.
func (o *opTrace) start(name string) {
	if o == nil {
		return
	}
	parent := -1
	if n := len(o.open); n > 0 {
		parent = o.open[n-1]
	}
	o.spans = append(o.spans, span{Name: name, Op: o.id, Parent: parent, Start: o.t.now()})
	o.open = append(o.open, len(o.spans)-1)
}

// stop closes the innermost open span; virt is the virtual time the
// call took on its machine.
func (o *opTrace) stop(virt time.Duration) {
	if o == nil {
		return
	}
	i := o.open[len(o.open)-1]
	o.open = o.open[:len(o.open)-1]
	o.spans[i].End = o.t.now()
	o.spans[i].Virt = int64(virt)
}

// end folds the op's spans into the tracer.
func (o *opTrace) end() {
	if o == nil {
		return
	}
	host, virt := selfTimes(o.spans)
	t := o.t
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, s := range o.spans {
		tot := t.totals[s.Name]
		if tot == nil {
			tot = &spanTotals{}
			t.totals[s.Name] = tot
		}
		tot.calls++
		tot.hostSelf += host[i]
		tot.virtSelf += virt[i]
		if o.id < t.keepOps {
			ls := laneSpan{span: s, Lane: o.lane}
			if s.Parent >= 0 {
				ls.ParentName = o.spans[s.Parent].Name
			}
			t.raw = append(t.raw, ls)
		}
	}
	t.lanes[o.lane] = false
}

// selfTimes returns each span's host and virtual self time: its
// duration minus the durations of its direct children. Children of a
// span run inside it one after another, so their durations never
// overlap.
func selfTimes(spans []span) (host, virt []int64) {
	host = make([]int64, len(spans))
	virt = make([]int64, len(spans))
	for i, s := range spans {
		host[i] += s.End - s.Start
		virt[i] += s.Virt
		if s.Parent >= 0 {
			host[s.Parent] -= s.End - s.Start
			virt[s.Parent] -= s.Virt
		}
	}
	return host, virt
}

// spanMetrics reports every known span's per-op self times and call
// rate over the traced ops; spans a workload never opens read 0.
func (t *tracer) spanMetrics() map[string]float64 {
	out := map[string]float64{}
	ops := float64(max(t.ops, 1))
	for _, name := range spanNames {
		tot := t.totals[name]
		if tot == nil {
			tot = &spanTotals{}
		}
		out[name+".host_us_per_op"] = float64(tot.hostSelf) / 1e3 / ops
		out[name+".virt_us_per_op"] = float64(tot.virtSelf) / 1e3 / ops
		out[name+".calls_per_op"] = float64(tot.calls) / ops
	}
	return out
}

// writeChrome writes the kept raw spans as a Chrome trace-event file
// (chrome://tracing, Perfetto): one complete event per span, one row
// per lane, with the op id, parent and virtual time as arguments.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(t.raw))
	for _, s := range t.raw {
		args := map[string]any{"op": s.Op, "virt_us": float64(s.Virt) / 1e3}
		if s.ParentName != "" {
			args["parent"] = s.ParentName
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		events = append(events, event{
			Name: s.Name, Cat: layer, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Lane, Args: args,
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
