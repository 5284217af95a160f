package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"slices"
	"testing"
)

func TestNearestRank(t *testing.T) {
	hundred := make([]int64, 100)
	for i := range hundred {
		hundred[i] = int64(100 - i) // reversed: nearestRank sorts
	}
	for _, tc := range []struct {
		xs   []int64
		p    float64
		want int64
	}{
		{hundred, 50, 50},
		{hundred, 99, 99},
		{hundred, 100, 100},
		{[]int64{7}, 50, 7},
		{[]int64{7}, 99, 7},
		{[]int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 99, 10}, // rank ceil(9.9) = 10
		{[]int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 50, 5},
		{[]int64{1, 2}, 50, 1},
		{nil, 50, 0},
	} {
		if got := nearestRank(slices.Clone(tc.xs), tc.p); got != tc.want {
			t.Errorf("nearestRank(%v, %v) = %d, want %d", tc.xs, tc.p, got, tc.want)
		}
	}
}

// The quartiles must match Python's statistics.quantiles(xs, n=4),
// which is how the spread of a benchmark's runs is judged.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 4}, [3]float64{1, 2, 4}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}, [3]float64{2, 4, 5}},
		{[]float64{42}, [3]float64{42, 42, 42}},
	} {
		q1, med, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, med, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// root [0,100) holds a [10,30) and b [40,70); b holds c [45,50).
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100, Virt: 50},
		{Name: "a", Parent: 0, Start: 10, End: 30, Virt: 10},
		{Name: "b", Parent: 0, Start: 40, End: 70, Virt: 20},
		{Name: "c", Parent: 2, Start: 45, End: 50, Virt: 5},
	}
	host, virt := selfTimes(spans)
	if want := []int64{50, 20, 25, 5}; !slices.Equal(host, want) {
		t.Errorf("host self times %v, want %v", host, want)
	}
	if want := []int64{20, 10, 15, 5}; !slices.Equal(virt, want) {
		t.Errorf("virtual self times %v, want %v", virt, want)
	}
}

func TestTracerFoldsOps(t *testing.T) {
	tr := newTracer(1)
	var clock int64
	tr.now = func() int64 { clock += 10; return clock }
	for op := 0; op < 2; op++ {
		o := tr.beginOp()
		o.start("fleet.worker") // 10
		o.start("load.run")     // 20
		o.stop(7)               // 30: load.run took 10 host ns, 7 virtual
		o.stop(7)               // 40: fleet.worker took 30, 20 of them its own
		o.end()
	}
	m := tr.spanMetrics()
	for name, want := range map[string]float64{
		"fleet.worker.host_us_per_op": 0.02,
		"fleet.worker.virt_us_per_op": 0,
		"fleet.worker.calls_per_op":   1,
		"load.run.host_us_per_op":     0.01,
		"load.run.virt_us_per_op":     0.007,
		"core.create.calls_per_op":    0,
	} {
		if got := m[name]; math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if len(tr.raw) != 2 || tr.raw[1].ParentName != "fleet.worker" {
		t.Errorf("kept raw spans %+v, want the first op's two spans", tr.raw)
	}
	var nilTracer *tracer
	o := nilTracer.beginOp() // the untraced path records nothing
	o.start("x")
	o.stop(0)
	o.end()
}

func TestShufflerIsSeeded(t *testing.T) {
	ops := func(seed uint64) []int {
		s := newShuffler(seed, []int{0, 0, 1, 1, 1, 1, 1, 2, 2, 3})
		var all []int
		for i := 0; i < 50; i++ {
			all = append(all, s.next()...)
		}
		return all
	}
	a, b, c := ops(1), ops(1), ops(2)
	if !slices.Equal(a, b) {
		t.Fatal("one seed gave two op lists")
	}
	if slices.Equal(a, c) {
		t.Fatal("seeds 1 and 2 gave the same op list")
	}
	count := func(xs []int) map[int]int {
		m := map[int]int{}
		for _, x := range xs {
			m[x]++
		}
		return m
	}
	ca, cc := count(a), count(c)
	for class, n := range ca {
		if cc[class] != n {
			t.Errorf("class %d: %d ops under seed 1, %d under seed 2", class, n, cc[class])
		}
	}
	// cow-snapshot's offsets are seeded the same way.
	w1, w2 := &cow{rng: newRNG(1)}, &cow{rng: newRNG(1)}
	for i := 0; i < 20; i++ {
		o := w1.nextOffset()
		if o != w2.nextOffset() || o%4096 != 0 || o > cowHeap-cowWrite {
			t.Fatalf("offset %d: %#x differs between equal seeds or is out of range", i, o)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricNames(t *testing.T) {
	pl := perLayerDefs()
	if len(endToEndDefs) > 16 || len(pl) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics, want at most 16 and 128", len(endToEndDefs), len(pl))
	}
	seen := map[string]bool{}
	for _, d := range append(slices.Clone(endToEndDefs), pl...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("bad or repeated metric %+v", d)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
		seen[d.Name] = true
	}
}

// BENCHMARK.json must list exactly the workloads and metrics the code
// reports.
func TestSpecMatchesCode(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for i, w := range workloads {
		if i >= len(names) || names[i] != w.name {
			t.Errorf("BENCHMARK.json workloads %v, code has %s at %d", names, w.name, i)
		}
	}
	if len(spec.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, code %d", len(spec.EndToEnd), len(endToEndDefs))
	}
	largest := 0.0
	for i, m := range spec.EndToEnd {
		if d := endToEndDefs[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, code %+v", i, m, d)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", m.Name, m.Bound)
		}
		largest = max(largest, m.Bound)
	}
	if spec.EndToEnd[0].Name != "setup_s" || spec.EndToEnd[0].Bound != largest {
		t.Errorf("setup_s must carry the largest bound")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var perLayer struct {
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &perLayer); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(perLayer.PerLayer, perLayerDefs()) {
		t.Errorf("BENCHMARK.json per_layer differs from perLayerDefs()")
	}
}

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "t", Better: "lower", Bound: 0.1}
	higher := specMetric{Name: "r", Better: "higher", Bound: 0.1}
	for _, tc := range []struct {
		m          specMetric
		base, next []float64
		want       string
	}{
		{lower, []float64{100, 101, 99}, []float64{102, 100, 101}, "same"},
		{lower, []float64{100, 101, 99}, []float64{120, 121, 119}, "worse"},
		{lower, []float64{100, 101, 99}, []float64{80, 81, 79}, "improved"},
		{higher, []float64{100, 101, 99}, []float64{80, 81, 79}, "worse"},
		{lower, []float64{50, 100, 150}, []float64{100, 101, 99}, "unresolved"},
		{lower, []float64{150, 200, 250}, []float64{10, 20, 30}, "improved"}, // every run better
		{lower, []float64{5, 5, 5}, []float64{5, 5, 5}, "same"},
	} {
		if got, _ := verdict(tc.m, tc.base, tc.next); got != tc.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", tc.m.Better, tc.base, tc.next, got, tc.want)
		}
	}
}

// TestWorkloadsSmoke runs every workload at tiny size: a traced run on
// seed 1 and an untraced one on seed 2. Every metric must be present
// and finite, every output check must pass, and the virtual metrics and
// counts must not depend on the seed.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots every workload's machines")
	}
	for _, w := range workloads {
		// One round of warm-up, except for fleet-mix, whose round is
		// its whole 600-machine population.
		w.warmup = min(w.warmup, 1)
		if w.name == fleetMix.name {
			w.warmup = 0
		}
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			traced, err := runWorkload(w, 1, 0, true, dir)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := runWorkload(w, 2, 0, false, "")
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*result{traced, plain} {
				if !r.correct() {
					t.Errorf("seed %d: %d failed: %v", r.seed, r.failed, r.problems)
				}
			}
			defs := append(append(slices.Clone(endToEndDefs), extraDefs...), perLayerDefs()...)
			for _, d := range defs {
				v, ok := traced.metrics[d.Name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v (present %v)", d.Name, v, ok)
				}
			}
			for _, n := range append([]string{"virt_op_p50_us", "virt_op_p99_us", "virt_req_per_vs", "virt_peak_rss_mib"}, counterNames[:]...) {
				if traced.metrics[n] != plain.metrics[n] {
					t.Errorf("%s: %v under seed 1, %v under seed 2", n, traced.metrics[n], plain.metrics[n])
				}
			}
			if _, err := os.Stat(dir + "/" + w.name + ".trace.json"); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestTraceFileIsChromeJSON(t *testing.T) {
	tr := newTracer(10)
	o := tr.beginOp()
	o.start("kernel.fork")
	o.stop(1500)
	o.end()
	path := t.TempDir() + "/x.trace.json"
	if err := tr.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.TraceEvents) != 1 || f.TraceEvents[0].Name != "kernel.fork" || f.TraceEvents[0].Ph != "X" || f.TraceEvents[0].Args["virt_us"] != 1.5 {
		t.Errorf("trace events %+v", f.TraceEvents)
	}
}
