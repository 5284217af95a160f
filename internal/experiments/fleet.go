package experiments

import (
	"fmt"

	"repro/sim"
	"repro/sim/fleet"
	"repro/sim/load"
)

// FleetClaim runs E10. A row is one fleet size's rolling wave with
// fork+exec creations, then with posix_spawn. The fleet runner merges
// machines in id order, so each cell is a pure function of its spec
// regardless of host parallelism.
//
// E10 — the §5 server claim at fleet scale. E8 shows one fork-based
// server slowing down as its heap grows; a datacenter multiplies that
// by the fleet and adds the deploy dimension: every rolling restart
// makes each replacement instance repay its warm-up tax — Θ(heap)
// page-table duplication per pre-created pool worker under fork, flat
// under spawn. The sweep drives sim/fleet's rolling-restart wave over
// growing fleet sizes and reports fleet throughput, the total re-warm
// tax, and fork's page-table bill.
func FleetClaim(heap uint64) (*Sweep, error) {
	const cpus, requests = 2, 16 // per machine; per machine per serve phase
	s := &Sweep{head: fmt.Sprintf(
		"E10 — the server claim at fleet scale (rolling restart, heap %s, %d CPUs and %d requests per machine):\n"+
			"each replacement instance repays its warm-up tax before serving; under fork that is\n"+
			"Θ(heap) page-table duplication per pool worker, paid machine by machine across the wave.\n\n",
		load.HumanBytes(heap), cpus, requests)}
	for _, machines := range []int{2, 4, 8} {
		var row []cell
		for _, v := range []sim.Strategy{sim.ForkExec, sim.Spawn} {
			row = append(row, cell{fleet: &fleet.Spec{
				Machines: machines, Scenario: fleet.RollingRestart, Load: load.Prefork,
				Via: v, CPUs: cpus, Requests: requests, HeapBytes: heap,
			}})
		}
		s.rows = append(s.rows, row)
	}
	fork := func(r []cell) fleet.Aggregate { return r[0].fr.Aggregate }
	spawn := func(r []cell) fleet.Aggregate { return r[1].fr.Aggregate }
	s.cols = []column{
		{"machines", func(r []cell) string { return fmt.Sprint(r[0].fleet.Machines) }},
		{"fork req/s", func(r []cell) string { return rate(fork(r).RequestsPerVSec) }},
		{"spawn req/s", func(r []cell) string { return rate(spawn(r).RequestsPerVSec) }},
		{"spawn:fork", func(r []cell) string {
			return fmt.Sprintf("%.2fx", ratio(spawn(r).RequestsPerVSec, fork(r).RequestsPerVSec))
		}},
		{"fork restart", func(r []cell) string { return ms(fork(r).RestartNanos) }},
		{"spawn restart", func(r []cell) string { return ms(spawn(r).RestartNanos) }},
		{"fork PTE copies", func(r []cell) string { return fmt.Sprint(fork(r).PTECopies) }},
		{"fork IPIs", func(r []cell) string { return fmt.Sprint(fork(r).TLBShootdowns) }},
	}
	return s.run()
}
