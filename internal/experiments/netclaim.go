package experiments

import (
	"fmt"

	"repro/sim"
	"repro/sim/load"
)

// ---------------------------------------------------------------
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
// ---------------------------------------------------------------

// NetClaimConfig parameterizes E15; zero fields get defaults.
type NetClaimConfig struct {
	HeapBytes uint64 // backend server heap (default 64 MiB)
	Requests  int    // client requests per run (default 64)
	Nodes     int    // backend pool size (default 2)
}

// NetClaimPoint is one strategy's run of the netlb restart cell.
type NetClaimPoint struct {
	Strategy string
	M        *load.Metrics
}

// NetClaimResult is E15.
type NetClaimResult struct {
	HeapBytes uint64
	Requests  int
	Nodes     int
	Points    []NetClaimPoint
}

// NetClaim runs E15: the netlb scenario (L7 balancer, backend 0
// restarts after a third of the traffic) under fork vs spawn.
// Deterministic: the cell is a single-threaded virtual-time event
// loop, so the table is a pure function of the config.
func NetClaim(cfg NetClaimConfig) (*NetClaimResult, error) {
	if cfg.HeapBytes == 0 {
		cfg.HeapBytes = 64 * MiB
	}
	if cfg.Requests == 0 {
		cfg.Requests = 64
	}
	if cfg.Nodes == 0 {
		cfg.Nodes = 2
	}
	res := &NetClaimResult{
		HeapBytes: cfg.HeapBytes, Requests: cfg.Requests, Nodes: cfg.Nodes,
	}
	for _, via := range []sim.Strategy{sim.ForkExec, sim.Spawn} {
		m, err := load.Run(load.Config{
			Scenario:  load.NetLB,
			Via:       via,
			Requests:  cfg.Requests,
			HeapBytes: cfg.HeapBytes,
			Nodes:     cfg.Nodes,
		})
		if err != nil {
			return nil, fmt.Errorf("netclaim %v: %w", via, err)
		}
		res.Points = append(res.Points, NetClaimPoint{Strategy: via.String(), M: m})
	}
	return res, nil
}

// Render formats E15 as a table: the same restart, fork vs spawn, with
// the retry storm in the timeout and retry columns.
func (r *NetClaimResult) Render() string {
	rows := [][]string{{
		"strategy",
		"served", "failed", "timeouts", "retries",
		"net pkts", "makespan",
	}}
	for _, p := range r.Points {
		rows = append(rows, []string{
			p.Strategy,
			fmt.Sprint(p.M.Requests),
			fmt.Sprint(p.M.FailedRequests),
			fmt.Sprint(p.M.NetTimeouts),
			fmt.Sprint(p.M.NetRetries),
			fmt.Sprint(p.M.NetPacketsSent),
			fmt.Sprintf("%.1fms", float64(p.M.VirtualNanos)/1e6),
		})
	}
	head := fmt.Sprintf(
		"E15 — one backend restart behind a load balancer (netlb, heap %s, %d requests, %d backends):\n"+
			"the restarted backend re-warms its worker pool before serving — Θ(heap) page-table\n"+
			"duplication per worker under fork, flat under spawn. The client retry timeout sits\n"+
			"between the two warm-up times, so fork turns the restart into a retry storm the\n"+
			"spawn pool simply absorbs.\n\n",
		load.HumanBytes(r.HeapBytes), r.Requests, r.Nodes)
	return head + renderTable(rows)
}
