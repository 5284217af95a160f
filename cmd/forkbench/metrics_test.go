package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/sim/fleet"
	"repro/sim/load"
)

// updateGoldens rewrites the checked-in testdata goldens, the metrics
// goldens, the experiments golden and the fleet reports golden:
//
//	go test ./cmd/forkbench -run 'TestRunMetricsGoldens|TestRunExperimentsGolden|TestRunFleetGolden' -update
var updateGoldens = flag.Bool("update", false, "rewrite the testdata goldens")

// metricsGoldens is the frozen invocation set: every case is a pure
// function of its flags, so CI regenerates each one and byte-compares
// it against the checked-in file (the metrics golden gate).
var metricsGoldens = []struct {
	name string
	args []string
}{
	// The netlb restart storm under fork, with the trace section: the
	// timeout/retry counters are the E15 claim in Prometheus form.
	{"metrics_netlb_fleet.prom", []string{"-scenario", "netlb", "-via", "fork", "-machines", "2", "-n", "24", "-trace"}},
	// The kvshard cell under deterministic network chaos: drop and
	// retry counters plus the per-flow breakdown.
	{"metrics_kvshard_chaos.prom", []string{"-scenario", "kvshard", "-via", "spawn", "-machines", "2", "-n", "16", "-heap", "8MiB", "-seed", "7"}},
	// The cluster netsplit scenario: pool/zone counters while a zone
	// is partitioned but alive.
	{"metrics_cluster_netsplit.prom", []string{"-cluster", "netsplit", "-heap", "4MiB"}},
	// The prefork server under memory-pressure and kill waves: both
	// failure kinds of the shared closed loop — creations refused and
	// workers lost after creation — in the per-machine counters.
	{"metrics_prefork_chaos.prom", []string{"-scenario", "prefork", "-via", "fork", "-machines", "4", "-n", "32", "-heap", "4MiB", "-seed", "3"}},
}

// TestRunMetricsGoldens drives `forkbench metrics` end to end and
// byte-compares each frozen invocation against its checked-in golden.
func TestRunMetricsGoldens(t *testing.T) {
	for _, c := range metricsGoldens {
		t.Run(c.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "m.prom")
			if err := runMetrics(append(append([]string{}, c.args...), "-o", out)); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, c.name, got)
		})
	}
}

// checkGolden byte-compares got with testdata/name, naming the first
// line that differs, or rewrites the file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *updateGoldens {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		i := 0
		for i < len(g)-1 && i < len(w)-1 && g[i] == w[i] {
			i++
		}
		t.Errorf("output drifted from %s at line %d (regenerate with -update if intended):\ngot:  %q\nwant: %q",
			golden, i+1, g[i], w[i])
	}
}

// TestRunMetricsFleetCounters checks the fleet section's families and
// labels without pinning bytes: per-machine request counters, the net
// packet/flow counters, and the E15 storm visible as timeouts.
func TestRunMetricsFleetCounters(t *testing.T) {
	out := filepath.Join(t.TempDir(), "m.prom")
	err := runMetrics([]string{"-scenario", "netlb", "-via", "fork", "-machines", "2", "-n", "24", "-o", out})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, want := range []string{
		`forkbench_run_info{mode="fleet",scenario="uniform",load="netlb",strategy="fork+exec"} 1`,
		`forkbench_requests_total{machine="0"} 24`,
		`forkbench_requests_total{machine="1"} 24`,
		`forkbench_net_packets_total{machine="0",dir="sent"}`,
		`forkbench_net_flow_packets_total{machine="0",src="0",dst="1",flow="req"}`,
		`forkbench_net_timeouts_total{machine="0"}`,
		`forkbench_net_retries_total{machine="0"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q:\n%s", want, text)
		}
	}
}

// TestRunMetricsClusterCounters checks the cluster section: pool
// labels, zone-labelled scale-outs, and no kill counter for a pure
// partition.
func TestRunMetricsClusterCounters(t *testing.T) {
	out := filepath.Join(t.TempDir(), "m.prom")
	if err := runMetrics([]string{"-cluster", "zoneoutage", "-heap", "4MiB", "-o", out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, want := range []string{
		`forkbench_run_info{mode="cluster",scenario="zoneoutage"} 1`,
		`forkbench_cluster_served_total{pool="web"}`,
		`forkbench_cluster_machines_killed_total{pool="web"}`,
		`forkbench_cluster_scale_outs_total{pool="web",zone=`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("cluster metrics missing %q:\n%s", want, text)
		}
	}
}

// TestRunMetricsRejectsJunk pins the metrics flag error paths.
func TestRunMetricsRejectsJunk(t *testing.T) {
	for _, args := range [][]string{
		{"-scenario", "bogus"},
		{"-via", "bogus"},
		{"-heap", "xMiB"},
		{"-cluster", "bogus"},
		{"-machines", "0"},
		{"extra-positional"},
		{"-scenario", "migrate"},
	} {
		if err := runMetrics(args); err == nil {
			t.Errorf("runMetrics(%v) succeeded, want error", args)
		}
	}
}

// TestRunLoadDistributed drives the load subcommand through a
// distributed cell: the emitted JSON carries the net counters and the
// -nodes override.
func TestRunLoadDistributed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "net.json")
	err := runLoad([]string{
		"-scenario", "kvshard", "-via", "spawn", "-n", "9", "-nodes", "3", "-heap", "8MiB", "-json", path,
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
	if len(ms) != 1 || ms[0].Scenario != "kvshard" || ms[0].Requests != 9 {
		t.Fatalf("unexpected metrics: %+v", ms)
	}
	if ms[0].NetPacketsSent == 0 || len(ms[0].NetFlows) == 0 {
		t.Errorf("distributed run reported no fabric traffic: %+v", ms[0])
	}
	// 3 shards: the client's get flows target addresses 1..3.
	shards := map[int]bool{}
	for _, fl := range ms[0].NetFlows {
		if fl.Flow == "get" {
			shards[fl.Dst] = true
		}
	}
	if len(shards) != 3 {
		t.Errorf("get flows hit %d shards, want the -nodes 3 override", len(shards))
	}
}

// TestRunFleetDistributedChaos drives the fleet subcommand with a
// distributed load under the chaos scenario: per-machine phases carry
// the net counters, and the wire chaos caused retries somewhere.
func TestRunFleetDistributedChaos(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.json")
	err := runFleet([]string{
		"-machines", "3", "-scenario", "chaos", "-load", "netlb", "-via", "spawn",
		"-n", "12", "-heap", "8MiB", "-seed", "5", "-permachine", "-json", path,
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
	if res.Load != "netlb" || len(res.Machines) != 3 {
		t.Fatalf("unexpected fleet report: load=%s machines=%d", res.Load, len(res.Machines))
	}
	var pkts, drops uint64
	for _, mm := range res.Machines {
		for _, ph := range mm.Phases {
			pkts += ph.NetPacketsSent
			drops += ph.NetDrops
		}
	}
	if pkts == 0 {
		t.Error("no fabric traffic recorded across the fleet")
	}
	if drops == 0 {
		t.Error("net chaos dropped nothing across 3 machines")
	}
}
