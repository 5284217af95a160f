package experiments

import (
	"fmt"

	"repro/sim"
	"repro/sim/load"
)

// ---------------------------------------------------------------
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
// ---------------------------------------------------------------

// MigrateConfig parameterizes E16; zero fields get defaults.
type MigrateConfig struct {
	HeapSizes []uint64 // heap ladder (default 4, 16, 64 MiB)
	Requests  int      // migrations per point (default 2)
	Rounds    int      // pre-copy rounds per migration (0 = cell default)
}

// MigratePoint is one (strategy, heap size) run of the migrate cell.
type MigratePoint struct {
	Strategy  string
	HeapBytes uint64
	M         *load.Metrics
}

// MigrateResult is E16.
type MigrateResult struct {
	HeapSizes []uint64
	Requests  int
	Points    []MigratePoint
}

// migrateStrategies is the E16 sweep: the COW family that pays per
// dirty page, the eager copy that dirties everything up front, the
// spawn that moves flat, and the vfork borrower the checkpoint must
// refuse.
var migrateStrategies = []sim.Strategy{
	sim.ForkExec, sim.EagerForkExec, sim.Spawn, sim.VforkExec,
}

// MigrateClaim runs E16: the two-machine live-migration cell over a
// heap ladder, once per creation strategy. Deterministic: each cell is
// a single-threaded virtual-time event loop, so the table is a pure
// function of the config.
func MigrateClaim(cfg MigrateConfig) (*MigrateResult, error) {
	if len(cfg.HeapSizes) == 0 {
		cfg.HeapSizes = []uint64{4 * MiB, 16 * MiB, 64 * MiB}
	}
	if cfg.Requests == 0 {
		cfg.Requests = 2
	}
	res := &MigrateResult{HeapSizes: cfg.HeapSizes, Requests: cfg.Requests}
	for _, via := range migrateStrategies {
		for _, heap := range cfg.HeapSizes {
			m, err := load.Run(load.Config{
				Scenario:  load.Migrate,
				Via:       via,
				Requests:  cfg.Requests,
				Workers:   cfg.Rounds,
				HeapBytes: heap,
			})
			if err != nil {
				return nil, fmt.Errorf("migrate %v/%s: %w", via, load.HumanBytes(heap), err)
			}
			res.Points = append(res.Points, MigratePoint{
				Strategy: via.String(), HeapBytes: heap, M: m,
			})
		}
	}
	return res, nil
}

// Render formats E16 as a table: downtime vs heap size, one block per
// strategy — Θ(dirty heap) for the fork family, ~flat for spawn, a
// clean refusal for the vfork borrower.
func (r *MigrateResult) Render() string {
	rows := [][]string{{
		"strategy", "heap",
		"migrated", "refused", "rounds", "pages shipped",
		"downtime/mig", "net pkts",
	}}
	for _, p := range r.Points {
		downtime := "—"
		if p.M.Requests > 0 {
			perMig := float64(p.M.MigrateDowntimeNanos) / float64(p.M.Requests)
			downtime = fmt.Sprintf("%.1fµs", perMig/1e3)
		}
		rows = append(rows, []string{
			p.Strategy,
			load.HumanBytes(p.HeapBytes),
			fmt.Sprint(p.M.Requests),
			fmt.Sprint(p.M.MigrateRefused),
			fmt.Sprint(p.M.MigrateRounds),
			fmt.Sprint(p.M.MigratePagesSent),
			downtime,
			fmt.Sprint(p.M.NetPacketsSent),
		})
	}
	head := fmt.Sprintf(
		"E16 — live-migration downtime vs heap size (migrate cell, %d migrations per point):\n"+
			"pre-copy rounds ship the pages the mutator dirties, then stop-and-copy ships the\n"+
			"residue — the downtime. A forked worker dirtied its inherited heap, so its downtime\n"+
			"and page traffic grow with the heap; a spawned worker converges in one round and\n"+
			"moves for the same price at any size; a mid-vfork borrower has no coherent address\n"+
			"space to serialize, so the checkpoint refuses it cleanly (migrated 0, refused > 0).\n\n",
		r.Requests)
	return head + renderTable(rows)
}
