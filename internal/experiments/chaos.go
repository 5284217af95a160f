package experiments

import (
	"fmt"

	"repro/sim"
	"repro/sim/fault"
	"repro/sim/load"
)

// ChaosClaim runs E11. A row is one strategy's clean run, then the
// same config under fault.Chaos(1, 0). The fault schedule is a pure
// function of (seed, virtual time, op counter), so the table is a pure
// function of the heap.
//
// E11 — the overcommit argument made measurable. §4.6 of the paper
// argues that fork turns memory exhaustion into a latent, badly-timed
// failure: every fork must reserve (or, overcommitted, pretend to
// reserve) the whole parent, so under pressure a big server's
// creations are exactly the requests that fail. The experiment runs
// the prefork server under identical deterministic memory-pressure
// fault waves (plus a worker kill wave hitting every strategy alike)
// and compares survival: fork's Θ(heap) commit reservations are mowed
// down by the pressure windows while spawn's few-page requests squeeze
// through, so the fork server drops a large slice of its traffic that
// the spawn server serves.
func ChaosClaim(heap uint64) (*Sweep, error) {
	const requests, seed = 64, 1
	s := &Sweep{head: fmt.Sprintf(
		"E11 — survival under memory-pressure fault waves (prefork, heap %s, %d requests, seed %d):\n"+
			"identical deterministic ENOMEM waves and worker kill waves hit every strategy; fork's\n"+
			"Θ(heap) commit reservations are what the pressure windows refuse (§4.6's overcommit\n"+
			"argument), so the fork server drops traffic the spawn server serves.\n\n",
		load.HumanBytes(heap), requests, seed)}
	for _, v := range []sim.Strategy{sim.ForkExec, sim.Spawn} {
		clean := cell{cfg: load.Config{Scenario: load.Prefork, Via: v, Requests: requests, HeapBytes: heap}}
		chaos := clean
		chaos.cfg.Faults = fault.Chaos(seed, 0)
		s.rows = append(s.rows, []cell{clean, chaos})
	}
	s.cols = []column{
		{"strategy", func(r []cell) string { return r[0].cfg.Via.String() }},
		{"clean req/s", func(r []cell) string { return rate(r[0].m.RequestsPerVSec) }},
		{"chaos req/s", func(r []cell) string { return rate(r[1].m.RequestsPerVSec) }},
		{"served", func(r []cell) string { return fmt.Sprint(r[1].m.Requests) }},
		{"failed", func(r []cell) string { return fmt.Sprint(r[1].m.FailedRequests) }},
		{"survival", func(r []cell) string { return fmt.Sprintf("%.0f%%", 100*survival(r[1].m)) }},
		{"oom kills", func(r []cell) string { return fmt.Sprint(r[1].m.OOMKills) }},
	}
	return s.run()
}

// survival is the fraction of a chaos run's requests actually served.
func survival(m *load.Metrics) float64 {
	return ratio(float64(m.Requests), float64(m.Requests+m.FailedRequests))
}
