package experiments

import (
	"fmt"

	"repro/sim"
	"repro/sim/fleet"
	"repro/sim/load"
)

// ---------------------------------------------------------------
// E8 — the §5 server claim, under sustained load: a server that
// creates a process per request slows down as its own heap grows if
// it creates through fork, and does not if it creates through spawn
// or the cross-process builder. Figure 1 shows one creation; this
// table shows the throughput consequence, driven by sim/load's
// prefork scenario.
// ---------------------------------------------------------------

// ServerPoint is one (strategy, heap) throughput sample.
type ServerPoint struct {
	Via       sim.Strategy
	HeapBytes uint64
	Metrics   *load.Metrics
}

// ServerClaimResult is E8.
type ServerClaimResult struct {
	Requests int
	Points   []ServerPoint
}

// ServerClaim sweeps prefork-server throughput over heap sizes for
// fork+exec, posix_spawn, and the cross-process builder, draining
// requests synthetic requests per cell.
func ServerClaim(maxHeap uint64, requests int) (*ServerClaimResult, error) {
	if maxHeap == 0 {
		maxHeap = 256 * MiB
	}
	if maxHeap < 16*MiB {
		maxHeap = 16 * MiB // the sweep's floor; never render an empty table
	}
	if requests == 0 {
		requests = 64
	}
	res := &ServerClaimResult{Requests: requests}
	// Build the whole (heap, strategy) matrix, then fan the cells out
	// across host cores; fleet.RunAll merges in input order, so the
	// table is identical to the old serial sweep.
	var cfgs []load.Config
	for _, heap := range SizeSweep(16*MiB, maxHeap) {
		for _, via := range []sim.Strategy{sim.ForkExec, sim.Spawn, sim.Builder} {
			cfgs = append(cfgs, load.Config{
				Scenario:  load.Prefork,
				Via:       via,
				Requests:  requests,
				HeapBytes: heap,
			})
		}
	}
	ms, err := fleet.RunAll(cfgs)
	if err != nil {
		return nil, err
	}
	for i, m := range ms {
		res.Points = append(res.Points, ServerPoint{Via: cfgs[i].Via, HeapBytes: cfgs[i].HeapBytes, Metrics: m})
	}
	return res, nil
}

// Render formats E8: requests per virtual second by heap size, with
// the spawn:fork throughput ratio — the factor the server loses to
// fork at that size.
func (r *ServerClaimResult) Render() string {
	vias := []sim.Strategy{sim.ForkExec, sim.Spawn, sim.Builder}
	head := []string{"server heap"}
	for _, v := range vias {
		head = append(head, v.String()+" req/s")
	}
	head = append(head, "spawn:fork")
	rows := [][]string{head}

	var order []uint64
	cells := map[uint64]map[sim.Strategy]*load.Metrics{}
	for _, p := range r.Points {
		if cells[p.HeapBytes] == nil {
			cells[p.HeapBytes] = map[sim.Strategy]*load.Metrics{}
			order = append(order, p.HeapBytes)
		}
		cells[p.HeapBytes][p.Via] = p.Metrics
	}
	for _, heap := range order {
		row := []string{load.HumanBytes(heap)}
		for _, v := range vias {
			if m := cells[heap][v]; m != nil {
				row = append(row, fmt.Sprintf("%.0f", m.RequestsPerVSec))
			} else {
				row = append(row, "-")
			}
		}
		ratio := "-"
		if f, s := cells[heap][sim.ForkExec], cells[heap][sim.Spawn]; f != nil && s != nil && f.RequestsPerVSec > 0 {
			ratio = fmt.Sprintf("%.1fx", s.RequestsPerVSec/f.RequestsPerVSec)
		}
		row = append(row, ratio)
		rows = append(rows, row)
	}
	return fmt.Sprintf("E8: prefork server throughput vs server heap (%d requests per cell; §5's claim under load)\n",
		r.Requests) + renderTable(rows)
}
