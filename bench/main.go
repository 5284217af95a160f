// Command bench is the repository's benchmark: four closed-loop
// workloads driven through the public functions of each layer, timed on
// two clocks — the host clock (how fast the simulator runs) and the
// simulated machines' virtual clock (the paper's reproduction). It
// prints every metric by name with its unit, checks the outputs, and
// ends with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// holding the end-to-end metrics, or with -trace 1 the per-layer ones.
// Build and run it from the repository root with bench/run.sh; see
// bench/README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	workloadName := fs.String("workload", "all", "workload to run: all|"+strings.Join(names, "|"))
	seed := fs.Uint64("seed", 1, "seed that orders the generated ops (run i uses seed+i)")
	seconds := fs.Float64("seconds", 10, "host seconds each run measures")
	trace := fs.Int("trace", 0, "1 = traced run: report the per-layer metrics instead of the end-to-end ones")
	traceDir := fs.String("trace-dir", "", "with -trace 1, write the first 1000 traced ops' spans to DIR/<workload>.trace.json")
	runs := fs.Int("runs", 1, "runs per workload; more than one also prints each metric's median and quartiles")
	jsonOut := fs.String("json", "", "write every run's metrics to `FILE`")
	compare := fs.Bool("compare", false, "compare two -json files by the bounds in ./BENCHMARK.json: -compare base.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two report files: base.json new.json")
			return 2
		}
		worse, err := compareReports(stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	}
	if err := checkFlags(fs.NArg(), *seconds, *trace, *runs); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}

	selected := workloads
	if *workloadName != "all" {
		w, err := findWorkload(*workloadName)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		selected = []workload{w}
	}

	rep := newReport(*seconds, *trace)
	d := time.Duration(*seconds * float64(time.Second))
	correct := true
	for _, w := range selected {
		for i := 0; i < *runs; i++ {
			res, err := runWorkload(w, *seed+uint64(i), d, *trace == 1, *traceDir)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			rep.add(res)
			correct = correct && res.correct()
			printResult(stdout, res, *trace == 1)
		}
	}
	if *runs > 1 {
		rep.printSummary(stdout)
	}
	if *jsonOut != "" {
		if err := rep.write(*jsonOut); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if !correct {
		return 1
	}
	return 0
}

func checkFlags(extra int, seconds float64, trace, runs int) error {
	switch {
	case extra > 0:
		return errors.New("unexpected arguments (did you mean -compare?)")
	case !(seconds > 0 && seconds <= 3600):
		return fmt.Errorf("-seconds %v: want more than 0 and at most 3600", seconds)
	case trace != 0 && trace != 1:
		return fmt.Errorf("-trace %d: want 0 or 1", trace)
	case runs < 1:
		return fmt.Errorf("-runs %d: want at least 1", runs)
	}
	return nil
}

// extraDefs are reported beside the end-to-end metrics but are not
// among them: failed_ratio is 0 on three of the four workloads, and the
// tracing overhead only exists in a traced run.
var extraDefs = []metricDef{
	{"failed_ratio", "fraction", "lower"},
	{"trace_overhead", "fraction", "lower"},
}

// allDefs is every metric a run can report, in print order.
func allDefs() []metricDef {
	return append(append(append([]metricDef(nil), endToEndDefs...), extraDefs...), perLayerDefs()...)
}

// printResult prints one run's metrics as a table, then the result
// line: the JSON object the benchmark contract reads, always last.
func printResult(w io.Writer, res *result, traced bool) {
	fmt.Fprintf(w, "%s  seed %d  ops %d  failed %d  correct %v\n", res.workload, res.seed, res.ops, res.failed, res.correct())
	for _, p := range res.problems {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", p)
	}
	for _, d := range allDefs() {
		if v, ok := res.metrics[d.Name]; ok {
			fmt.Fprintf(w, "  %-42s %16.6g %s\n", d.Name, v, d.Unit)
		}
	}
	defs := endToEndDefs
	if traced {
		defs = perLayerDefs()
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct(), res.ops, res.failed, map[string]value{}}
	for _, d := range defs {
		line.Metrics[d.Name] = value{res.metrics[d.Name], d.Unit}
	}
	data, _ := json.Marshal(line) // plain numbers and strings always marshal
	fmt.Fprintf(w, "%s\n", data)
}

// report is the -json file: every run's value of every metric, per
// workload, with each metric's quartiles over the runs.
type report struct {
	Seconds   float64                  `json:"seconds"`
	Trace     int                      `json:"trace"`
	Workloads map[string]*workloadRuns `json:"workloads"`
}

type workloadRuns struct {
	Seeds   []uint64           `json:"seeds"`
	Ops     []int              `json:"ops"`
	Failed  []int              `json:"failed"`
	Metrics map[string]*series `json:"metrics"`
}

type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
}

func newReport(seconds float64, trace int) *report {
	return &report{Seconds: seconds, Trace: trace, Workloads: map[string]*workloadRuns{}}
}

func (r *report) add(res *result) {
	wr := r.Workloads[res.workload]
	if wr == nil {
		wr = &workloadRuns{Metrics: map[string]*series{}}
		r.Workloads[res.workload] = wr
	}
	wr.Seeds = append(wr.Seeds, res.seed)
	wr.Ops = append(wr.Ops, res.ops)
	wr.Failed = append(wr.Failed, res.failed)
	for _, d := range allDefs() {
		v, ok := res.metrics[d.Name]
		if !ok {
			continue
		}
		s := wr.Metrics[d.Name]
		if s == nil {
			s = &series{Unit: d.Unit}
			wr.Metrics[d.Name] = s
		}
		s.Values = append(s.Values, v)
		s.Q1, s.Median, s.Q3 = quartiles(s.Values)
	}
}

func (r *report) printSummary(w io.Writer) {
	for _, wl := range workloads {
		wr := r.Workloads[wl.name]
		if wr == nil {
			continue
		}
		fmt.Fprintf(w, "%s over %d runs (median, quartiles, spread = (q3-q1)/median)\n", wl.name, len(wr.Seeds))
		for _, d := range allDefs() {
			if s := wr.Metrics[d.Name]; s != nil {
				fmt.Fprintf(w, "  %-42s %16.6g %s  [%.6g .. %.6g]  %.2f%%\n",
					d.Name, s.Median, d.Unit, s.Q1, s.Q3, 100*spread(s.Values))
			}
		}
	}
}

func (r *report) write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
