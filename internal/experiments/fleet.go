package experiments

import (
	"fmt"

	"repro/sim"
	"repro/sim/fleet"
	"repro/sim/load"
)

// ---------------------------------------------------------------
// E10 — the §5 server claim at fleet scale. E8 shows one fork-based
// server slowing down as its heap grows; a datacenter multiplies that
// by the fleet and adds the deploy dimension: every rolling restart
// makes each replacement instance repay its warm-up tax — Θ(heap)
// page-table duplication per pre-created pool worker under fork, flat
// under spawn. The sweep drives sim/fleet's rolling-restart wave over
// growing fleet sizes and reports fleet throughput, the total re-warm
// tax, and fork's page-table bill.
// ---------------------------------------------------------------

// FleetClaimPoint is one fleet size's fork-vs-spawn comparison.
type FleetClaimPoint struct {
	Machines int

	// Fork is the rolling wave with fork+exec creations; Spawn the
	// same wave with posix_spawn.
	Fork  *fleet.Result
	Spawn *fleet.Result
}

// FleetClaimResult is E10.
type FleetClaimResult struct {
	HeapBytes uint64
	CPUs      int
	Requests  int
	Points    []FleetClaimPoint
}

// FleetClaimConfig parameterizes FleetClaim; zero fields get defaults.
type FleetClaimConfig struct {
	MachineCounts []int  // fleet sizes (default {2, 4, 8})
	Requests      int    // requests per machine per serve phase (default 16)
	HeapBytes     uint64 // per-machine server heap (default 64 MiB)
	CPUs          int    // per-machine CPU count (default 2)
}

// FleetClaim runs E10. Deterministic: the fleet runner merges machine
// results in id order, so the table is a pure function of the config
// regardless of host parallelism.
func FleetClaim(cfg FleetClaimConfig) (*FleetClaimResult, error) {
	if len(cfg.MachineCounts) == 0 {
		cfg.MachineCounts = []int{2, 4, 8}
	}
	if cfg.Requests == 0 {
		cfg.Requests = 16
	}
	if cfg.HeapBytes == 0 {
		cfg.HeapBytes = 64 * MiB
	}
	if cfg.CPUs == 0 {
		cfg.CPUs = 2
	}
	res := &FleetClaimResult{HeapBytes: cfg.HeapBytes, CPUs: cfg.CPUs, Requests: cfg.Requests}
	for _, machines := range cfg.MachineCounts {
		pt := FleetClaimPoint{Machines: machines}
		spec := fleet.Spec{
			Machines:  machines,
			Scenario:  fleet.RollingRestart,
			Load:      load.Prefork,
			CPUs:      cfg.CPUs,
			Requests:  cfg.Requests,
			HeapBytes: cfg.HeapBytes,
		}
		var err error
		spec.Via = sim.ForkExec
		if pt.Fork, err = fleet.Run(spec); err != nil {
			return nil, fmt.Errorf("fleetclaim fork @%d machines: %w", machines, err)
		}
		spec.Via = sim.Spawn
		if pt.Spawn, err = fleet.Run(spec); err != nil {
			return nil, fmt.Errorf("fleetclaim spawn @%d machines: %w", machines, err)
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// Render formats E10 as a table: fleet throughput and the rolling
// wave's re-warm tax, fork vs spawn, as the fleet grows.
func (r *FleetClaimResult) Render() string {
	rows := [][]string{{
		"machines",
		"fork req/s", "spawn req/s", "spawn:fork",
		"fork restart", "spawn restart",
		"fork PTE copies", "fork IPIs",
	}}
	for _, p := range r.Points {
		ratio := 0.0
		if p.Fork.Aggregate.RequestsPerVSec > 0 {
			ratio = p.Spawn.Aggregate.RequestsPerVSec / p.Fork.Aggregate.RequestsPerVSec
		}
		rows = append(rows, []string{
			fmt.Sprint(p.Machines),
			fmt.Sprintf("%.0f", p.Fork.Aggregate.RequestsPerVSec),
			fmt.Sprintf("%.0f", p.Spawn.Aggregate.RequestsPerVSec),
			fmt.Sprintf("%.2fx", ratio),
			fmt.Sprintf("%.1fms", float64(p.Fork.Aggregate.RestartNanos)/1e6),
			fmt.Sprintf("%.1fms", float64(p.Spawn.Aggregate.RestartNanos)/1e6),
			fmt.Sprint(p.Fork.Aggregate.PTECopies),
			fmt.Sprint(p.Fork.Aggregate.TLBShootdowns),
		})
	}
	head := fmt.Sprintf(
		"E10 — the server claim at fleet scale (rolling restart, heap %s, %d CPUs and %d requests per machine):\n"+
			"each replacement instance repays its warm-up tax before serving; under fork that is\n"+
			"Θ(heap) page-table duplication per pool worker, paid machine by machine across the wave.\n\n",
		load.HumanBytes(r.HeapBytes), r.CPUs, r.Requests)
	return head + renderTable(rows)
}
