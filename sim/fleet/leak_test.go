package fleet

import (
	"fmt"
	"runtime"
	"testing"

	"repro/sim"
	"repro/sim/load"
)

// TestRollingRestartLeaksNothing is the fleet leak invariant: after a
// rolling restart — warm pool created through any strategy, traffic
// served, pool torn down — every machine's process, physical-frame,
// and commit counts must be exactly back at the post-warm-up baseline,
// which the replacement's Drain checks, failing the machine otherwise.
// A fleet that leaks a page per restart wave loses a machine's worth
// of RAM over enough deploys.
func TestRollingRestartLeaksNothing(t *testing.T) {
	for _, via := range append(sim.Strategies(), sim.EagerForkExec) {
		via := via
		t.Run(via.String(), func(t *testing.T) {
			spec := Spec{
				Machines:  3,
				Scenario:  RollingRestart,
				Via:       via,
				Requests:  4,
				HeapBytes: 8 << 20,
			}.withDefaults()
			tc := load.NewTemplates()
			for id := 0; id < spec.Machines; id++ {
				if _, err := runMachine(spec, id, tc); err != nil {
					t.Errorf("machine %d: %v", id, err)
				}
			}
		})
	}
}

// TestMachineDerivationDeterministic pins the per-machine derivation:
// the same (spec, id) pair always resolves to the same machine, and
// the heterogeneous ladder cycles 1/2/4/8 with traffic scaled to the
// core count.
func TestMachineDerivationDeterministic(t *testing.T) {
	spec := Spec{Machines: 8, Scenario: Heterogeneous, Requests: 5}.withDefaults()
	for id := 0; id < spec.Machines; id++ {
		a, b := spec.machine(id), spec.machine(id)
		if a != b {
			t.Errorf("machine(%d) not deterministic: %+v vs %+v", id, a, b)
		}
		wantCPUs := heteroLadder[id%len(heteroLadder)]
		if a.CPUs != wantCPUs {
			t.Errorf("machine %d: %d CPUs, want %d", id, a.CPUs, wantCPUs)
		}
		if a.Requests != spec.Requests*wantCPUs {
			t.Errorf("machine %d: %d requests, want %d", id, a.Requests, spec.Requests*wantCPUs)
		}
	}
}

// TestSpecValidation pins the error paths.
func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{Machines: -1},
		{Machines: 1<<20 + 1},
		{CPUs: 65},
		{CPUs: -2},
		{Requests: -4},
		{Workers: -3},
		{SurgeFactor: -1},
		{Scenario: "bogus"},
		{Load: "bogus"},
	}
	for _, spec := range bad {
		if _, err := Run(spec); err == nil {
			t.Errorf("Run(%+v) succeeded, want error", spec)
		}
	}
	const want = `fleet: unknown scenario "bogus" (uniform|rolling|rebalance|hetero|surge|chaos)`
	if _, err := ParseScenario("bogus"); err == nil || err.Error() != want {
		t.Errorf("ParseScenario(bogus) = %v, want %s", err, want)
	}
	for _, s := range Scenarios() {
		got, err := ParseScenario(string(s))
		if err != nil || got != s {
			t.Errorf("ParseScenario(%q) = %v, %v", s, got, err)
		}
	}
}

// TestRunAllMatchesSerial pins RunAll's contract: position-merged
// results identical to running each config serially, and the lowest
// failing index's error reported. GOMAXPROCS is raised so the pool
// runs parallel even on a one-CPU host.
func TestRunAllMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cfgs := []load.Config{
		{Scenario: load.Prefork, Via: sim.ForkExec, Requests: 5, HeapBytes: 4 << 20},
		{Scenario: load.Prefork, Via: sim.Spawn, Requests: 5, HeapBytes: 4 << 20},
		{Scenario: load.ForkStorm, Via: sim.Spawn, Requests: 1, Workers: 8, HeapBytes: 4 << 20},
		{Scenario: load.Prefork, Via: sim.Builder, Requests: 3, HeapBytes: 4 << 20, CPUs: 2},
	}
	parallel, err := RunAll(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(parallel) != len(cfgs) {
		t.Fatalf("%d results for %d configs", len(parallel), len(cfgs))
	}
	for i, cfg := range cfgs {
		serial, err := load.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%+v", parallel[i]) != fmt.Sprintf("%+v", serial) {
			t.Errorf("config %d: parallel result diverged from serial:\n%+v\nvs\n%+v", i, parallel[i], serial)
		}
	}

	// An invalid config in the middle: RunAll reports it, and the
	// error is the lowest failing index's regardless of host timing.
	broken := append([]load.Config{}, cfgs...)
	broken[1].Scenario = "bogus"
	if _, err := RunAll(broken); err == nil {
		t.Error("RunAll with a broken config succeeded")
	}
}

// TestAggregateMergesInMachineOrder checks the aggregate math on a
// hand-built fleet: sums, makespan, fleet peak RSS, and restart
// totals.
func TestAggregateMergesInMachineOrder(t *testing.T) {
	machines := []MachineMetrics{
		{
			Machine: 0, CPUs: 1,
			Phases: []*load.Metrics{
				{Requests: 10, Creations: 10, VirtualNanos: 100, PeakRSSBytes: 500, Counters: load.Counters{PageCopies: 3}},
				{Requests: 5, Creations: 5, VirtualNanos: 50, PeakRSSBytes: 800, Counters: load.Counters{PageCopies: 1}},
			},
			RestartNanos:    25,
			RequestsPerVSec: 2,
		},
		{
			Machine: 1, CPUs: 2,
			Phases: []*load.Metrics{
				{Requests: 20, Creations: 22, VirtualNanos: 300, PeakRSSBytes: 600, Counters: load.Counters{TLBShootdowns: 7}},
			},
			RequestsPerVSec: 3,
		},
	}
	agg := aggregate(machines)
	if agg.Machines != 2 || agg.TotalRequests != 35 || agg.TotalCreations != 37 {
		t.Errorf("totals: %+v", agg)
	}
	if agg.MaxVirtualNanos != 300 || agg.TotalVirtualNanos != 475 {
		t.Errorf("virtual time: max %d total %d, want 300/475", agg.MaxVirtualNanos, agg.TotalVirtualNanos)
	}
	if agg.FleetPeakRSSBytes != 800+600 {
		t.Errorf("fleet peak RSS %d, want %d", agg.FleetPeakRSSBytes, 800+600)
	}
	if agg.PageCopies != 4 || agg.TLBShootdowns != 7 {
		t.Errorf("meter totals: %+v", agg)
	}
	if agg.RestartNanos != 25 || agg.MaxRestartNanos != 25 {
		t.Errorf("restart totals: %+v", agg)
	}
	if agg.RequestsPerVSec != 5 {
		t.Errorf("fleet rate %v, want 5", agg.RequestsPerVSec)
	}
}

// TestRollingRestartTax pins the scenario's claim: a fork-based
// machine's re-warm tax exceeds a spawn-based machine's, because every
// pool worker duplicates the freshly dirtied heap's page tables —
// visible both in virtual time and in the pool's PTE-copy bill.
func TestRollingRestartTax(t *testing.T) {
	run := func(via sim.Strategy) *MachineMetrics {
		spec := Spec{Machines: 1, Scenario: RollingRestart, Via: via,
			Requests: 4, HeapBytes: 32 << 20}.withDefaults()
		mm, err := runMachine(spec, 0, load.NewTemplates())
		if err != nil {
			t.Fatal(err)
		}
		if mm.RestartNanos == 0 {
			t.Fatalf("%v: restart tax is zero", via)
		}
		return mm
	}
	fork, spawn := run(sim.ForkExec), run(sim.Spawn)
	if fork.RestartNanos <= spawn.RestartNanos {
		t.Errorf("fork restart tax (%d ns) should exceed spawn's (%d ns)", fork.RestartNanos, spawn.RestartNanos)
	}
	// The pool's page-table bill: 2*CPUs workers x 32MiB of PTEs
	// under fork, none under spawn.
	if wantPTEs := uint64(2*2) * (32 << 20) / 4096; fork.RestartPTECopies < wantPTEs {
		t.Errorf("fork pool PTE bill %d, want >= %d", fork.RestartPTECopies, wantPTEs)
	}
	if spawn.RestartPTECopies != 0 {
		t.Errorf("spawn pool paid %d PTE copies, want 0", spawn.RestartPTECopies)
	}
}

// TestMachineWarmupScalesWithHeapUnderFork: the cluster premise at
// machine granularity — a fork machine's replacement warm-up grows
// with the dirty heap, a spawn machine's stays flat.
func TestMachineWarmupScalesWithHeapUnderFork(t *testing.T) {
	warm := func(via sim.Strategy, heap uint64) uint64 {
		t.Helper()
		spec := Spec{Machines: 1, Scenario: RollingRestart, Via: via,
			Requests: 4, HeapBytes: heap, Workers: 4}.withDefaults()
		mm, err := runMachine(spec, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		return mm.RestartNanos
	}
	forkSmall, forkBig := warm(sim.ForkExec, 8<<20), warm(sim.ForkExec, 64<<20)
	if forkBig <= forkSmall {
		t.Errorf("fork warm-up flat across heap growth: %d vs %d", forkSmall, forkBig)
	}
	spawnSmall, spawnBig := warm(sim.Spawn, 8<<20), warm(sim.Spawn, 64<<20)
	// Spawn still dirties the bigger heap; only the pool-creation part
	// must stay flat. Compare the fork:spawn gap instead of absolutes.
	if forkBig-forkSmall <= spawnBig-spawnSmall {
		t.Errorf("heap growth cost fork %d vs spawn %d, want fork to pay more",
			forkBig-forkSmall, spawnBig-spawnSmall)
	}
}
