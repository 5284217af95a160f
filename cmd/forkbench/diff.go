package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
	"strings"

	"repro/sim/load"
)

// diffOut receives the diff report (stdout; swapped by the CLI tests).
var diffOut io.Writer = os.Stdout

// runDiff is the `forkbench diff <old.json> <new.json>` subcommand:
// the bench-drift gate. Both files are sweep outputs (JSON arrays of
// load metrics, the BENCH_SIM.json format); runs are matched by their
// configuration key and every metric is compared exactly — the
// simulator is deterministic, so any difference is a cost-model change
// that must be acknowledged by regenerating the checked-in baseline,
// not silently absorbed.
func runDiff(args []string) error {
	fs := flag.NewFlagSet("forkbench diff", flag.ExitOnError)
	summary := fs.Bool("summary", false, "print one line per differing run (changed metric names only)")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: forkbench diff [-summary] <old.json> <new.json>\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return fmt.Errorf("diff: want exactly two files, got %d", fs.NArg())
	}
	oldRuns, err := readRuns(fs.Arg(0))
	if err != nil {
		return err
	}
	newRuns, err := readRuns(fs.Arg(1))
	if err != nil {
		return err
	}

	drift := 0
	report := func(format string, a ...any) {
		fmt.Fprintf(diffOut, format+"\n", a...)
		drift++
	}
	var keys []string
	for k := range oldRuns {
		keys = append(keys, k)
	}
	for k := range newRuns {
		if _, ok := oldRuns[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		o, inOld := oldRuns[k]
		n, inNew := newRuns[k]
		switch {
		case !inNew:
			// A run config present in only one file is a gate
			// failure like any metric drift — a machine-shape or
			// matrix change must be acknowledged, not skipped — and
			// the lone run's metrics are summarized so the report
			// shows what the other file is missing.
			report("missing: %s (in %s only)", k, fs.Arg(0))
			if !*summary {
				for _, line := range summarizeMetrics(o) {
					fmt.Fprintf(diffOut, "         %s\n", line)
				}
			}
		case !inOld:
			report("added:   %s (in %s only)", k, fs.Arg(1))
			if !*summary {
				for _, line := range summarizeMetrics(n) {
					fmt.Fprintf(diffOut, "         %s\n", line)
				}
			}
		default:
			ds := diffMetrics(o, n)
			if *summary && len(ds) > 0 {
				// One line per differing run: just the metric names,
				// so a full-sweep drift stays readable in CI logs.
				names := make([]string, len(ds))
				for i, d := range ds {
					names[i] = strings.SplitN(d, " ", 2)[0]
				}
				report("drift:   %s: %d metric(s): %s", k, len(ds), strings.Join(names, " "))
				continue
			}
			for _, d := range ds {
				report("drift:   %s: %s", k, d)
			}
		}
	}
	fmt.Fprintf(diffOut, "%d run(s) compared, %d difference(s)\n", len(keys), drift)
	if drift > 0 {
		return fmt.Errorf("diff: %s and %s disagree on %d point(s); if the cost-model change is intended, regenerate the baseline (see README)",
			fs.Arg(0), fs.Arg(1), drift)
	}
	return nil
}

// readRuns loads a sweep JSON file and indexes its runs by
// configuration key.
func readRuns(path string) (map[string]*load.Metrics, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ms []*load.Metrics
	if err := json.Unmarshal(data, &ms); err != nil {
		return nil, fmt.Errorf("diff: %s: %w", path, err)
	}
	runs := make(map[string]*load.Metrics, len(ms))
	for _, m := range ms {
		k := runKey(m)
		if _, dup := runs[k]; dup {
			return nil, fmt.Errorf("diff: %s: duplicate run %s", path, k)
		}
		runs[k] = m
	}
	return runs, nil
}

// runKey identifies a sweep cell by every configuration dimension the
// metrics record (scenario, strategy, heap, RAM, cpus, requests) —
// so a machine-shape change like a new RAM default surfaces as a
// missing+added pair rather than passing silently. Dimensions the
// metrics do not echo (Workers, Window, HugePages) cannot key; two
// cells differing only in those are rejected as duplicates, which
// fails the gate loudly instead of merging them.
func runKey(m *load.Metrics) string {
	return fmt.Sprintf("%s/%s heap=%d ram=%d cpus=%d req=%d",
		m.Scenario, m.Strategy, m.HeapBytes, m.RAMBytes, m.NumCPUs, m.Requests)
}

// runKeyFields are the JSON keys of the dimensions runKey is built
// from: they identify a run, so they are matched, not compared.
var runKeyFields = map[string]bool{
	"scenario": true, "strategy": true, "heap_bytes": true,
	"ram_bytes": true, "num_cpus": true, "requests": true,
}

// metricField is one compared field of load.Metrics: its JSON key and
// its reflect index path (through the embedded counter groups).
type metricField struct {
	name  string
	index []int
}

// metricFields is the comparison schema shared by diffMetrics and
// summarizeMetrics: every JSON field of load.Metrics but the run key,
// in JSON order. It is read off the struct, so a metric added to
// load.Metrics is gated without an edit here.
var metricFields = func() []metricField {
	var out []metricField
	for _, f := range reflect.VisibleFields(reflect.TypeOf(load.Metrics{})) {
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if f.Anonymous || name == "" || name == "-" || runKeyFields[name] {
			continue
		}
		out = append(out, metricField{name, f.Index})
	}
	return out
}()

// summarizeMetrics renders a lone run's per-metric values (for runs
// present in only one file, where there is nothing to diff against),
// five metrics per line.
func summarizeMetrics(m *load.Metrics) []string {
	v := reflect.ValueOf(m).Elem()
	fields := make([]string, len(metricFields))
	for i, f := range metricFields {
		fields[i] = fmt.Sprintf("%s=%v", f.name, v.FieldByIndex(f.index))
	}
	var out []string
	for len(fields) > 0 {
		n := min(5, len(fields))
		out = append(out, strings.Join(fields[:n], " "))
		fields = fields[n:]
	}
	return out
}

// diffMetrics compares every metric of one run exactly.
func diffMetrics(o, n *load.Metrics) []string {
	ov, nv := reflect.ValueOf(o).Elem(), reflect.ValueOf(n).Elem()
	var out []string
	for _, f := range metricFields {
		out = diffValue(out, f.name, ov.FieldByIndex(f.index), nv.FieldByIndex(f.index))
	}
	return out
}

// diffValue appends the differences between a and b under name.
// Scalars compare exactly, floats included — the simulator guarantees
// bit-stable output. Slices (per-CPU utilization, the flow log)
// compare element by element, so a scheduler or routing change that
// preserves the totals still fails the gate.
func diffValue(out []string, name string, a, b reflect.Value) []string {
	if a.Kind() != reflect.Slice {
		if !a.Equal(b) {
			out = append(out, fmt.Sprintf("%s %+v -> %+v", name, a, b))
		}
		return out
	}
	if a.Len() != b.Len() {
		return append(out, fmt.Sprintf("%s has %d entries -> %d", name, a.Len(), b.Len()))
	}
	for i := 0; i < a.Len(); i++ {
		out = diffValue(out, fmt.Sprintf("%s[%d]", name, i), a.Index(i), b.Index(i))
	}
	return out
}
