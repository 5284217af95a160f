package experiments

import (
	"fmt"

	"repro/sim"
	"repro/sim/load"
)

// NetClaim runs E15: the netlb scenario (L7 balancer, backend 0
// restarts after a third of the traffic), one row per strategy. Each
// cell is a single-threaded virtual-time event loop, so the table is a
// pure function of the heap.
//
// E15 — the re-warm tax on the wire. The fleet experiments (E10, E12)
// measure fork's Θ(heap) warm-up as latency a machine pays by itself;
// E15 puts the same tax behind a load balancer and watches it become
// other machines' problem. The netlb cell restarts one backend mid-run
// (a deploy, a crash — routine either way). The replacement re-warms
// its worker pool before serving: Θ(heap) page-table duplication per
// worker under fork, flat under spawn. The client's retry timeout sits
// between those two warm-up times, so under fork every request queued
// behind the restart times out and retries against the other backends
// — a retry storm radiating from one machine's restart — while the
// spawn pool absorbs the restart without a single timeout.
func NetClaim(heap uint64) (*Sweep, error) {
	const requests, nodes = 64, 2 // client requests; backend pool size
	s := &Sweep{head: fmt.Sprintf(
		"E15 — one backend restart behind a load balancer (netlb, heap %s, %d requests, %d backends):\n"+
			"the restarted backend re-warms its worker pool before serving — Θ(heap) page-table\n"+
			"duplication per worker under fork, flat under spawn. The client retry timeout sits\n"+
			"between the two warm-up times, so fork turns the restart into a retry storm the\n"+
			"spawn pool simply absorbs.\n\n",
		load.HumanBytes(heap), requests, nodes)}
	for _, v := range []sim.Strategy{sim.ForkExec, sim.Spawn} {
		s.rows = append(s.rows, []cell{{cfg: load.Config{Scenario: load.NetLB, Via: v, Requests: requests, HeapBytes: heap, Nodes: nodes}}})
	}
	s.cols = []column{
		{"strategy", func(r []cell) string { return r[0].cfg.Via.String() }},
		{"served", func(r []cell) string { return fmt.Sprint(r[0].m.Requests) }},
		{"failed", func(r []cell) string { return fmt.Sprint(r[0].m.FailedRequests) }},
		{"timeouts", func(r []cell) string { return fmt.Sprint(r[0].m.NetTimeouts) }},
		{"retries", func(r []cell) string { return fmt.Sprint(r[0].m.NetRetries) }},
		{"net pkts", func(r []cell) string { return fmt.Sprint(r[0].m.NetPacketsSent) }},
		{"makespan", func(r []cell) string { return ms(r[0].m.VirtualNanos) }},
	}
	return s.run()
}
