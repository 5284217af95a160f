package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/sim"
	"repro/sim/cluster"
	"repro/sim/fleet"
	"repro/sim/load"
)

func TestParseSize(t *testing.T) {
	cases := []struct {
		in   string
		want uint64
		err  bool
	}{
		{"1GiB", 1 << 30, false},
		{"2G", 2 << 30, false},
		{"512MiB", 512 << 20, false},
		{"64M", 64 << 20, false},
		{"4KiB", 4 << 10, false},
		{"128K", 128 << 10, false},
		{"4096", 4096, false},
		{" 8MiB ", 8 << 20, false},
		{"", 0, true},
		{"xMiB", 0, true},
		{"GiB", 0, true},
		{"17179869184GiB", 0, true}, // 2^64 bytes: wrapped to 0
		{"17179869185GiB", 0, true}, // wrapped to 1GiB
	}
	for _, c := range cases {
		got, err := parseSize(c.in)
		if c.err {
			if err == nil {
				t.Errorf("parseSize(%q) = %d, want error", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseSize(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("parseSize(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestRunExperimentsGolden pins the paper's whole evaluation: every
// experiment's stdout at the default flags, in `forkbench all` order,
// must byte-match the checked-in golden. The CI experiments golden
// gate runs the binary against it at GOMAXPROCS 1 and 4. Regenerate
// on purpose with
//
//	go test ./cmd/forkbench -run TestRunExperimentsGolden -update
func TestRunExperimentsGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := runExperiments("all", experiments.GiB, &buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "experiments_all.txt", buf.Bytes())
}

// TestRunExperimentsLadderHonoursMax: an experiment that sweeps the
// {4, 16, 64} MiB heap ladder runs -max alone when no rung fits under
// it, and -max 0 is refused before any experiment runs.
func TestRunExperimentsLadderHonoursMax(t *testing.T) {
	for _, c := range []struct {
		name    string
		heapCol int // the heap column of the experiment's table
		rows    int // one per strategy; a scaleout row holds both pools
	}{
		{"migrate", 1, 4},
		{"scaleout", 0, 1},
	} {
		var buf bytes.Buffer
		if err := runExperiments(c.name, 2*experiments.MiB, &buf); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		rows := tableRows(buf.String())
		seen := map[string]bool{}
		for _, r := range rows {
			if r[c.heapCol] != "2MiB" || seen[r[0]] {
				t.Errorf("%s -max 2MiB: row %q, want one 2MiB row per strategy", c.name, r)
			}
			seen[r[0]] = true
		}
		if len(rows) != c.rows {
			t.Errorf("%s -max 2MiB: %d rows, want %d:\n%s", c.name, len(rows), c.rows, buf.String())
		}
	}
	var buf bytes.Buffer
	if err := runExperiments("all", 0, &buf); err == nil || buf.Len() != 0 {
		t.Errorf("-max 0: err %v after %d bytes of output, want an error before any experiment", err, buf.Len())
	}
}

// TestRunExperimentsFig1Capped: fig1 clamps -max to 1 GiB, the parent
// size its figure is sized for, so a larger -max prints the 1 GiB
// figure. Unclamped, a -max near 2^64 would wrap the doubling size
// series and never end; a lost cap fails here with an extra row.
func TestRunExperimentsFig1Capped(t *testing.T) {
	var at1, at2 bytes.Buffer
	if err := runExperiments("fig1", experiments.GiB, &at1); err != nil {
		t.Fatal(err)
	}
	if err := runExperiments("fig1", 2*experiments.GiB, &at2); err != nil {
		t.Fatal(err)
	}
	if at1.String() != at2.String() {
		t.Errorf("fig1 -max 2GiB:\n%s\nwant the -max 1GiB figure:\n%s", at2.String(), at1.String())
	}
}

// tableRows returns the whitespace-separated cells of each row of the
// first table in out: the lines between its dashed rule and the next
// blank line.
func tableRows(out string) [][]string {
	var rows [][]string
	inTable := false
	for _, l := range strings.Split(out, "\n") {
		switch {
		case !inTable:
			inTable = strings.HasPrefix(l, "--")
		case strings.TrimSpace(l) == "":
			return rows
		default:
			rows = append(rows, strings.Fields(l))
		}
	}
	return rows
}

// TestRunLoadWritesJSON drives the load subcommand end to end at a
// tiny scale and checks the emitted JSON parses back into metrics.
func TestRunLoadWritesJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	err := runLoad([]string{
		"-scenario", "prefork", "-via", "spawn", "-n", "4", "-heap", "1MiB", "-json", path,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var ms []*load.Metrics
	if err := json.Unmarshal(data, &ms); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(ms) != 1 || ms[0].Requests != 4 || ms[0].Scenario != "prefork" {
		t.Errorf("unexpected metrics: %+v", ms)
	}
}

// TestRunLoadStrategiesGolden pins every creation path a load scenario
// takes: prefork's workers, checkpoint's and smpserver's snapshots and
// migrate's migrants, each under all six strategies, at a 4 MiB heap,
// and then the two network cells' full reports (wire counters and flow
// logs included) under the same six. The concatenated JSON reports
// must byte-match the checked-in golden, which was generated before
// the strategies shared one dispatch, and extended with the network
// cells before they shared one cell frame; it is the gate both must
// keep. Regenerate only on purpose with
//
//	go test ./cmd/forkbench -run TestRunLoadStrategiesGolden -update
func TestRunLoadStrategiesGolden(t *testing.T) {
	var all []byte
	for _, scenario := range []string{"prefork", "checkpoint", "smpserver", "migrate", "netlb", "kvshard"} {
		for via := sim.Strategy(0); via.Valid(); via++ {
			path := filepath.Join(t.TempDir(), "load.json")
			args := []string{"-scenario", scenario, "-via", via.Name(), "-heap", "4MiB", "-n", "2", "-json", path}
			if err := runLoad(args); err != nil {
				t.Fatalf("load %v: %v", args, err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, data...)
		}
	}
	checkGolden(t, "load_strategies.json", all)
}

// TestRunLoadRejectsJunk pins the error paths. A negative count must
// come back as a *load.SpecError naming its field, not a panic.
func TestRunLoadRejectsJunk(t *testing.T) {
	for _, c := range []struct {
		args  []string
		field string // the *load.SpecError field, if one is expected
	}{
		{[]string{"-scenario", "bogus"}, ""},
		{[]string{"-via", "bogus"}, ""},
		{[]string{"-heap", "xMiB"}, ""},
		{[]string{"extra-positional"}, ""},
		{[]string{"-scenario", "netlb", "-n", "-3"}, "Requests"},
		{[]string{"-scenario", "kvshard", "-n", "-1"}, "Requests"},
		{[]string{"-scenario", "kvshard", "-nodes", "-2"}, "Nodes"},
		{[]string{"-scenario", "netlb", "-nodes", "-1"}, "Nodes"},
		{[]string{"-scenario", "forkstorm", "-workers", "-1", "-n", "1"}, "Workers"},
		{[]string{"-scenario", "buildfarm", "-n", "-5"}, "Requests"},
		{[]string{"-ram", "4095"}, "RAMBytes"},
	} {
		err := runLoad(c.args)
		if err == nil {
			t.Errorf("runLoad(%v) succeeded, want error", c.args)
			continue
		}
		var se *load.SpecError
		if c.field != "" && (!errors.As(err, &se) || se.Field != c.field) {
			t.Errorf("runLoad(%v) = %v, want *load.SpecError on %s", c.args, err, c.field)
		}
	}
}

// TestRunFleetWritesJSON drives the fleet subcommand end to end at a
// tiny scale and checks the emitted report parses back.
func TestRunFleetWritesJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.json")
	err := runFleet([]string{
		"-machines", "2", "-scenario", "rolling", "-via", "fork",
		"-n", "3", "-heap", "4MiB", "-permachine", "-json", path,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var res fleet.Result
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(res.Machines) != 2 || res.Scenario != "rolling" || res.Aggregate.RestartNanos == 0 {
		t.Errorf("unexpected fleet report: %+v", res)
	}
}

// TestRunFleetGolden pins `forkbench fleet`'s JSON report for every
// fleet scenario at three machines, plus a fleet of netlb cells and a
// chaos fleet of kvshard cells with every machine's report: the
// concatenated reports — exact-sum fleet rate, migration outage,
// restart tax and each kvshard cell's wire counters included — must
// byte-match the checked-in golden.
// Regenerate on purpose with
//
//	go test ./cmd/forkbench -run TestRunFleetGolden -update
func TestRunFleetGolden(t *testing.T) {
	var runs [][]string
	for _, s := range fleet.Scenarios() {
		runs = append(runs, []string{"-scenario", string(s), "-n", "4"})
	}
	runs = append(runs, []string{"-scenario", "uniform", "-load", "netlb", "-n", "8"},
		[]string{"-scenario", "chaos", "-load", "kvshard", "-permachine", "-n", "8"})
	var all []byte
	for _, args := range runs {
		path := filepath.Join(t.TempDir(), "fleet.json")
		if err := runFleet(append([]string{"-machines", "3", "-heap", "4MiB", "-json", path}, args...)); err != nil {
			t.Fatalf("fleet %v: %v", args, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, data...)
	}
	checkGolden(t, "fleet_reports.json", all)
}

// TestRunFleetRejectsJunk pins the fleet flag error paths.
func TestRunFleetRejectsJunk(t *testing.T) {
	for _, args := range [][]string{
		{"-scenario", "bogus"},
		{"-load", "bogus"},
		{"-via", "bogus"},
		{"-heap", "xMiB"},
		{"-machines", "0"},
		{"extra-positional"},
		// Chaos needs the failure-tolerant prefork driver; the
		// report must never claim a load that did not run.
		{"-scenario", "chaos", "-load", "buildfarm"},
		// A migration is the rebalance wave's own cell, not a
		// per-machine load whose counters the fleet would drop.
		{"-load", "migrate"},
	} {
		if err := runFleet(args); err == nil {
			t.Errorf("runFleet(%v) succeeded, want error", args)
		}
	}
}

// TestRunDiff drives the bench-drift gate: identical sweeps pass,
// metric drift and missing runs fail with the difference named.
func TestRunDiff(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ms []*load.Metrics) string {
		t.Helper()
		data, err := json.MarshalIndent(ms, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := []*load.Metrics{
		{Scenario: "prefork", Strategy: "fork+exec", HeapBytes: 1 << 20, NumCPUs: 1, Requests: 4, VirtualNanos: 1000, Counters: load.Counters{PTECopies: 50}},
		{Scenario: "prefork", Strategy: "posix_spawn", HeapBytes: 1 << 20, NumCPUs: 1, Requests: 4, VirtualNanos: 100},
	}
	old := write("old.json", base)

	if err := runDiff([]string{old, old}); err != nil {
		t.Errorf("identical files reported drift: %v", err)
	}

	drifted := []*load.Metrics{
		{Scenario: "prefork", Strategy: "fork+exec", HeapBytes: 1 << 20, NumCPUs: 1, Requests: 4, VirtualNanos: 1001, Counters: load.Counters{PTECopies: 50}},
		{Scenario: "prefork", Strategy: "posix_spawn", HeapBytes: 1 << 20, NumCPUs: 1, Requests: 4, VirtualNanos: 100},
	}
	if err := runDiff([]string{old, write("drift.json", drifted)}); err == nil {
		t.Error("virtual_ns drift not reported")
	}

	if err := runDiff([]string{old, write("short.json", base[:1])}); err == nil {
		t.Error("missing run not reported")
	}
	if err := runDiff([]string{old}); err == nil {
		t.Error("single-argument diff succeeded")
	}
	if err := runDiff([]string{old, filepath.Join(dir, "nope.json")}); err == nil {
		t.Error("nonexistent file succeeded")
	}

	// A cell is identified by its configuration: the same config
	// twice in one file is a corrupt sweep, not two cells.
	dup := []*load.Metrics{base[0], base[0]}
	if err := runDiff([]string{old, write("dup.json", dup)}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate key error = %v, want duplicate-run failure", err)
	}
}

// TestSweepConfigsCoverEveryScenario keeps the baseline matrix honest:
// every scenario present, the §5 cells sweeping fork vs spawn vs
// builder at more than one heap size, and the SMP scenarios swept over
// multiple CPU counts.
func TestSweepConfigsCoverEveryScenario(t *testing.T) {
	cfgs := sweepConfigs(0)
	seen := map[load.Scenario]int{}
	heaps := map[uint64]bool{}
	smpCPUs := map[int]bool{}
	for _, c := range cfgs {
		seen[c.Scenario]++
		if c.Scenario == load.Prefork {
			heaps[c.HeapBytes] = true
		}
		if c.Scenario == load.SMPServer {
			smpCPUs[c.CPUs] = true
		}
	}
	for _, s := range load.Scenarios() {
		// The distributed cells and the migration cell stay out of the
		// baseline matrix on purpose: the network and migration planes
		// must be free when disabled, so BENCH_SIM.json does not
		// move when they change. Their regression
		// coverage is the metrics goldens and the net/migrate
		// determinism gates, not the bench trajectory.
		if s.Distributed() || s == load.Migrate {
			continue
		}
		if seen[s] == 0 {
			t.Errorf("sweep misses scenario %s", s)
		}
	}
	if seen[load.Prefork] < 6 || len(heaps) < 2 {
		t.Errorf("prefork cells = %d over %d heaps; want the full §5 matrix", seen[load.Prefork], len(heaps))
	}
	if len(smpCPUs) < 3 {
		t.Errorf("smpserver swept over %d CPU counts; want the 1/2/4/8 matrix", len(smpCPUs))
	}

	// A pinned sweep (the CI cpus matrix) pins every cell.
	for _, c := range sweepConfigs(4) {
		if c.CPUs != 4 {
			t.Fatalf("pinned sweep left %s at %d CPUs", c.Scenario, c.CPUs)
		}
	}
}

// TestRunDiffLoneRunSummary pins the gate's behaviour when a run
// config exists in only one file: non-zero exit AND a per-metric
// summary of the lone run, so the report shows exactly what the other
// sweep is missing instead of silently skipping the cell.
func TestRunDiffLoneRunSummary(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ms []*load.Metrics) string {
		t.Helper()
		data, err := json.MarshalIndent(ms, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	both := []*load.Metrics{
		{Scenario: "prefork", Strategy: "fork+exec", HeapBytes: 1 << 20, NumCPUs: 1, Requests: 4, VirtualNanos: 1000, Counters: load.Counters{PTECopies: 50}},
		{Scenario: "prefork", Strategy: "posix_spawn", HeapBytes: 1 << 20, NumCPUs: 1, Requests: 4, VirtualNanos: 77, Counters: load.Counters{Syscalls: 9}},
	}
	old := write("old.json", both)
	short := write("short.json", both[:1])

	var buf bytes.Buffer
	prev := diffOut
	diffOut = &buf
	defer func() { diffOut = prev }()

	if err := runDiff([]string{old, short}); err == nil {
		t.Fatal("lone run did not fail the gate")
	}
	out := buf.String()
	for _, want := range []string{
		"missing: prefork/posix_spawn",
		"virtual_ns=77",
		"syscalls=9",
		"1 difference(s)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}

	// The added direction summarizes too.
	buf.Reset()
	if err := runDiff([]string{short, old}); err == nil {
		t.Fatal("added run did not fail the gate")
	}
	if out := buf.String(); !strings.Contains(out, "added:   prefork/posix_spawn") || !strings.Contains(out, "virtual_ns=77") {
		t.Errorf("added-run summary missing:\n%s", out)
	}
}

// TestRunTraceWritesRenderedTrace drives the trace subcommand end to
// end: the emitted file must hold the structured trace (process
// lifecycle, syscall enter/exit), and two runs of the same invocation
// must be byte-identical.
func TestRunTraceWritesRenderedTrace(t *testing.T) {
	dir := t.TempDir()
	p1 := filepath.Join(dir, "a.trace")
	p2 := filepath.Join(dir, "b.trace")
	args := []string{"-via", "fork", "-heap", "64KiB", "-o"}
	if err := runTrace(append(args, p1)); err != nil {
		t.Fatal(err)
	}
	if err := runTrace(append(args, p2)); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("two identical trace invocations differ")
	}
	for _, want := range []string{"proc+", "enter write", "exec", "proc-"} {
		if !strings.Contains(string(a), want) {
			t.Errorf("trace missing %q:\n%s", want, a)
		}
	}
}

// TestRunTraceRejectsJunk pins the trace flag error paths.
func TestRunTraceRejectsJunk(t *testing.T) {
	for _, args := range [][]string{
		{"-via", "bogus"},
		{"-heap", "xMiB"},
	} {
		if err := runTrace(args); err == nil {
			t.Errorf("runTrace(%v) succeeded, want error", args)
		}
	}
}

// TestRunClusterWritesJSON drives the cluster subcommand end to end at
// a small heap and checks the emitted report parses back.
func TestRunClusterWritesJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cluster.json")
	err := runCluster([]string{"-scenario", "surge", "-heap", "4MiB", "-json", path})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep cluster.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(rep.Pools) != 2 || rep.Pools[0].Served == 0 || len(rep.Trace) == 0 {
		t.Errorf("unexpected cluster report: %+v", rep)
	}
}

// TestRunClusterRejectsJunk pins the cluster flag error paths.
func TestRunClusterRejectsJunk(t *testing.T) {
	for _, args := range [][]string{
		{"-scenario", "bogus"},
		{"-heap", "xMiB"},
		{"extra-positional"},
	} {
		if err := runCluster(args); err == nil {
			t.Errorf("runCluster(%v) succeeded, want error", args)
		}
	}
}

// TestRunDiffSummary pins -summary: still a gate failure, but one line
// per differing run naming the changed metrics, and no per-metric dump
// for lone runs.
func TestRunDiffSummary(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ms []*load.Metrics) string {
		t.Helper()
		data, err := json.MarshalIndent(ms, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	old := write("old.json", []*load.Metrics{
		{Scenario: "prefork", Strategy: "fork+exec", HeapBytes: 1 << 20, NumCPUs: 1, Requests: 4, VirtualNanos: 1000, Counters: load.Counters{PTECopies: 50}},
		{Scenario: "prefork", Strategy: "posix_spawn", HeapBytes: 1 << 20, NumCPUs: 1, Requests: 4, VirtualNanos: 77, Counters: load.Counters{Syscalls: 9}},
	})
	drifted := write("new.json", []*load.Metrics{
		{Scenario: "prefork", Strategy: "fork+exec", HeapBytes: 1 << 20, NumCPUs: 1, Requests: 4, VirtualNanos: 1001, Counters: load.Counters{PTECopies: 51}},
	})

	var buf bytes.Buffer
	prev := diffOut
	diffOut = &buf
	defer func() { diffOut = prev }()

	if err := runDiff([]string{"-summary", old, drifted}); err == nil {
		t.Fatal("summary mode swallowed the drift")
	}
	out := buf.String()
	for _, want := range []string{
		"drift:   prefork/fork+exec heap=1048576 ram=0 cpus=1 req=4: 2 metric(s): virtual_ns pte_copies",
		"missing: prefork/posix_spawn",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary output missing %q:\n%s", want, out)
		}
	}
	for _, reject := range []string{"1000 -> 1001", "syscalls=9"} {
		if strings.Contains(out, reject) {
			t.Errorf("summary output leaks detail %q:\n%s", reject, out)
		}
	}
}
