package fleet

import (
	"fmt"
	"strings"
	"testing"

	"repro/sim"
	"repro/sim/load"
)

// TestRebalanceOutage pins the rebalance wave's claim: live-migrating
// the resident worker costs only the stop-and-copy downtime, which
// under fork grows with the dirty heap it inherited and stays well
// under the full restart tax the rolling wave pays — and a spawned
// worker moves for almost nothing.
func TestRebalanceOutage(t *testing.T) {
	run := func(via sim.Strategy) *MachineMetrics {
		t.Helper()
		spec := Spec{Machines: 1, Scenario: Rebalance, Via: via,
			Requests: 4, HeapBytes: 32 << 20}.withDefaults()
		mm, err := runMachine(spec, 0, load.NewTemplates())
		if err != nil {
			t.Fatal(err)
		}
		return mm
	}
	fork, spawn := run(sim.ForkExec), run(sim.Spawn)
	for _, mm := range []*MachineMetrics{fork, spawn} {
		if mm.MigrateRefused != 0 {
			t.Fatalf("%s: migration refused", mm.Strategy)
		}
		if mm.MigrateNanos == 0 || mm.MigratePagesSent == 0 {
			t.Fatalf("%s: migration was free (%dns, %d pages)",
				mm.Strategy, mm.MigrateNanos, mm.MigratePagesSent)
		}
		if mm.RestartNanos != 0 {
			t.Errorf("%s: rebalanced machine paid a restart tax (%dns)", mm.Strategy, mm.RestartNanos)
		}
		if len(mm.Phases) != 2 {
			t.Fatalf("%s: %d phases, want warm+serve", mm.Strategy, len(mm.Phases))
		}
	}
	if fork.MigrateNanos <= spawn.MigrateNanos {
		t.Errorf("fork outage %dns not above spawn's %dns; the inherited heap should cost",
			fork.MigrateNanos, spawn.MigrateNanos)
	}

	// The wave's pitch: migrating the fork worker beats restarting
	// the machine and re-warming from scratch.
	restartSpec := Spec{Machines: 1, Scenario: RollingRestart, Via: sim.ForkExec,
		Requests: 4, HeapBytes: 32 << 20}.withDefaults()
	restarted, err := runMachine(restartSpec, 0, load.NewTemplates())
	if err != nil {
		t.Fatal(err)
	}
	if fork.MigrateNanos >= restarted.RestartNanos {
		t.Errorf("fork migration outage %dns not below the restart tax %dns",
			fork.MigrateNanos, restarted.RestartNanos)
	}
}

// TestRebalanceVforkFallsBack: a worker the checkpoint cannot
// serialize (a vfork borrower) pins its machine — the wave pays the
// full rolling restart for it and records the refusal, and the
// replacement drains back to its books.
func TestRebalanceVforkFallsBack(t *testing.T) {
	spec := Spec{Machines: 1, Scenario: Rebalance, Via: sim.VforkExec,
		Requests: 4, HeapBytes: 8 << 20}.withDefaults()
	mm, err := runMachine(spec, 0, load.NewTemplates())
	if err != nil {
		t.Fatal(err)
	}
	if mm.MigrateRefused != 1 {
		t.Fatalf("refusals = %d, want 1", mm.MigrateRefused)
	}
	if mm.MigrateNanos != 0 || mm.MigratePagesSent != 0 {
		t.Errorf("refused migration still shipped: %dns, %d pages", mm.MigrateNanos, mm.MigratePagesSent)
	}
	if mm.RestartNanos == 0 {
		t.Error("fallback restart was free; the refusal must cost the full re-warm")
	}
}

// TestRebalanceAggregates: the migrate fields survive the streaming
// fold and the rendered report names the outage.
func TestRebalanceAggregates(t *testing.T) {
	spec := Spec{Machines: 3, Scenario: Rebalance, Via: sim.ForkExec,
		Requests: 2, HeapBytes: 8 << 20, KeepPerMachine: true}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	a := res.Aggregate
	if a.MigrateDowntimeNanos == 0 || a.MigratePagesSent == 0 {
		t.Fatalf("aggregate lost the migration: %+v", a)
	}
	var sum, max uint64
	for _, mm := range res.Machines {
		sum += mm.MigrateNanos
		if mm.MigrateNanos > max {
			max = mm.MigrateNanos
		}
	}
	if a.MigrateDowntimeNanos != sum || a.MaxMigrateNanos != max {
		t.Errorf("fold mismatch: total %d (want %d), max %d (want %d)",
			a.MigrateDowntimeNanos, sum, a.MaxMigrateNanos, max)
	}
	if a.MigrateRefusals != 0 {
		t.Errorf("refusals = %d, want 0", a.MigrateRefusals)
	}
}

// TestRebalanceRenderRowsMatchMakespan: the per-machine "virtual"
// column counts the migration outage, as the aggregate does. Two
// identical machines each take exactly the makespan.
func TestRebalanceRenderRowsMatchMakespan(t *testing.T) {
	res, err := Run(Spec{Machines: 2, Scenario: Rebalance, Via: sim.ForkExec,
		Requests: 2, HeapBytes: 8 << 20, KeepPerMachine: true})
	if err != nil {
		t.Fatal(err)
	}
	makespan := fmt.Sprintf("%.3fms", float64(res.Aggregate.MaxVirtualNanos)/1e6)
	out := res.Render()
	_, rows, ok := strings.Cut(out, "IPIs")
	if !ok {
		t.Fatalf("no machine breakdown:\n%s", out)
	}
	n := 0
	for _, line := range strings.Split(strings.TrimSpace(rows), "\n") {
		if cols := strings.Fields(line); len(cols) < 4 || cols[3] != makespan {
			t.Errorf("row %q: virtual time is not the makespan %s", line, makespan)
		}
		n++
	}
	if n != 2 {
		t.Errorf("%d machine rows, want 2:\n%s", n, out)
	}
}
