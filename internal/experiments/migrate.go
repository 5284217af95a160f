package experiments

import (
	"fmt"

	"repro/sim"
	"repro/sim/load"
)

// migrateStrategies is the E16 sweep: the COW family that pays per
// dirty page, the eager copy that dirties everything up front, the
// spawn that moves flat, and the vfork borrower the checkpoint must
// refuse.
var migrateStrategies = []sim.Strategy{
	sim.ForkExec, sim.EagerForkExec, sim.Spawn, sim.VforkExec,
}

// MigrateClaim runs E16: the two-machine live-migration cell over the
// heap ladder up to maxHeap, one block of rows per creation strategy.
// Each cell is a single-threaded virtual-time event loop, so the table
// is a pure function of maxHeap.
//
// E16 — live migration downtime vs heap size per creation strategy.
// Checkpoint/restore turns a process into pages on the wire, and the
// pre-copy loop (sim/load's migrate cell) moves it while it keeps
// mutating. What the paper's argument predicts — and this table
// measures — is that the cost of moving a process is a property of
// how it was created. A forked worker inherited the parent's heap
// copy-on-write and dirtied it, so every pre-copy round re-ships the
// pages the mutator touched and the stop-and-copy residue grows with
// the heap: Θ(dirty heap) downtime. A spawned worker owns only what
// it allocated itself, converges after the first round, and moves for
// a near-constant price whatever the configured heap. And a process
// caught mid-vfork cannot move at all — it is borrowing its parent's
// address space, there is nothing coherent to serialize — so the
// checkpoint refuses cleanly rather than shipping a torn image.
func MigrateClaim(maxHeap uint64) (*Sweep, error) {
	const requests = 2
	s := &Sweep{head: fmt.Sprintf(
		"E16 — live-migration downtime vs heap size (migrate cell, %d migrations per point):\n"+
			"pre-copy rounds ship the pages the mutator dirties, then stop-and-copy ships the\n"+
			"residue — the downtime. A forked worker dirtied its inherited heap, so its downtime\n"+
			"and page traffic grow with the heap; a spawned worker converges in one round and\n"+
			"moves for the same price at any size; a mid-vfork borrower has no coherent address\n"+
			"space to serialize, so the checkpoint refuses it cleanly (migrated 0, refused > 0).\n\n",
		requests)}
	for _, v := range migrateStrategies {
		for _, heap := range ladder(maxHeap) {
			s.rows = append(s.rows, []cell{{cfg: load.Config{Scenario: load.Migrate, Via: v, Requests: requests, HeapBytes: heap}}})
		}
	}
	s.cols = []column{
		{"strategy", func(r []cell) string { return r[0].cfg.Via.String() }},
		{"heap", func(r []cell) string { return load.HumanBytes(r[0].cfg.HeapBytes) }},
		{"migrated", func(r []cell) string { return fmt.Sprint(r[0].m.Requests) }},
		{"refused", func(r []cell) string { return fmt.Sprint(r[0].m.MigrateRefused) }},
		{"rounds", func(r []cell) string { return fmt.Sprint(r[0].m.MigrateRounds) }},
		{"pages shipped", func(r []cell) string { return fmt.Sprint(r[0].m.MigratePagesSent) }},
		{"downtime/mig", func(r []cell) string {
			if m := r[0].m; m.Requests > 0 {
				return fmt.Sprintf("%.1fµs", float64(m.MigrateDowntimeNanos)/float64(m.Requests)/1e3)
			}
			return "—"
		}},
		{"net pkts", func(r []cell) string { return fmt.Sprint(r[0].m.NetPacketsSent) }},
	}
	return s.run()
}
