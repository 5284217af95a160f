package experiments

import (
	"fmt"

	"repro/sim"
	"repro/sim/load"
)

// ServerClaim sweeps prefork-server throughput over heaps from 16 MiB
// to maxHeap for fork+exec, posix_spawn, and the cross-process
// builder, with the spawn:fork ratio — the factor the server loses to
// fork at that size.
//
// E8 — the §5 server claim, under sustained load: a server that
// creates a process per request slows down as its own heap grows if
// it creates through fork, and does not if it creates through spawn
// or the cross-process builder. Figure 1 shows one creation; this
// table shows the throughput consequence, driven by sim/load's
// prefork scenario.
func ServerClaim(maxHeap uint64) (*Sweep, error) {
	const requests = 64
	vias := []sim.Strategy{sim.ForkExec, sim.Spawn, sim.Builder}
	s := &Sweep{
		head: fmt.Sprintf("E8: prefork server throughput vs server heap (%d requests per cell; §5's claim under load)\n", requests),
		cols: []column{{"server heap", func(r []cell) string { return load.HumanBytes(r[0].cfg.HeapBytes) }}},
	}
	// 16 MiB is the sweep's floor: never render an empty table.
	for _, heap := range sizeSweep(16*MiB, max(maxHeap, 16*MiB)) {
		var row []cell
		for _, v := range vias {
			row = append(row, cell{cfg: load.Config{Scenario: load.Prefork, Via: v, Requests: requests, HeapBytes: heap}})
		}
		s.rows = append(s.rows, row)
	}
	for i, v := range vias {
		s.cols = append(s.cols, column{v.String() + " req/s", func(r []cell) string { return rate(r[i].m.RequestsPerVSec) }})
	}
	s.cols = append(s.cols, column{"spawn:fork", func(r []cell) string {
		if fork := r[0].m.RequestsPerVSec; fork > 0 {
			return fmt.Sprintf("%.1fx", r[1].m.RequestsPerVSec/fork)
		}
		return "-"
	}})
	return s.run()
}
