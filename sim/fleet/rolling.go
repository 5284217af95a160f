package fleet

import (
	"repro/sim"
	"repro/sim/load"
)

// restartDebug carries the replacement machine's resource counters for
// the leak-invariant tests: after the pool is torn down, process and
// frame counts must be exactly back at the post-warm-up baseline.
type restartDebug struct {
	BaseProcs, EndProcs int
	BasePages, EndPages uint64
}

// runRestartedMachine is the second half of a rolling restart: the
// machine's replacement instance. It boots fresh, repays the warm-up
// tax — dirty the server heap (load.Prepare), pre-create the worker
// pool through the configured strategy — and only then serves its
// share of traffic (load.Prepared.Run, so the serve phase is bookkept
// identically to the warm phase's load.Run). Under fork every pool
// worker duplicates the freshly dirtied heap's page tables (Θ(heap)
// each); under spawn or the builder the pool comes up at a flat cost.
// It records the machine's phases as warm then the replacement's
// serve phase, the restart tax (virtual time from boot to
// ready-to-serve) in mm.RestartNanos, and the warm-up's page-table
// bill, which the serve phase's meter reset would otherwise discard,
// in mm.RestartPTECopies. The boot itself is stamped from tpls'
// boot-only template (nil = cold boot); the warm-up is NOT stamped —
// repaying it inside measured virtual time is the whole point of the
// wave.
func runRestartedMachine(ms machineSpec, tpls *templates, mm *MachineMetrics, warm *load.Metrics) (*restartDebug, error) {
	cfg := ms.loadConfig()
	cfg.Scenario = load.Prefork // the wave serves prefork-style traffic
	// Size RAM once and pin it in the config, so the booted machine
	// and the RAMBytes the serve metrics report cannot diverge.
	cfg.RAMBytes = 4 * ms.HeapBytes
	if cfg.RAMBytes < 1<<30 {
		cfg.RAMBytes = 1 << 30
	}
	sys, bootTpl, err := tpls.bootSystem(ms.CPUs, cfg.RAMBytes)
	if err != nil {
		return nil, err
	}
	k := sys.Kernel()

	// Re-warm: the replacement instance rebuilds the resident state
	// the killed machine had for free — the dirty heap, then the
	// pre-created (parked) worker pool awaiting connections.
	t0 := k.Elapsed()
	prep, err := load.Prepare(sys, cfg)
	if err != nil {
		return nil, err
	}
	dbg := &restartDebug{BaseProcs: k.ProcessCount(), BasePages: k.Phys().AllocatedPages()}
	pool := make([]*sim.Process, 0, ms.Workers)
	teardown := func() {
		for _, p := range pool {
			p.Destroy()
		}
		dbg.EndProcs = k.ProcessCount()
		dbg.EndPages = k.Phys().AllocatedPages()
	}
	pteBase := k.Meter().PTECopies
	for i := 0; i < ms.Workers; i++ {
		p, err := sys.Command("true").Via(ms.Via).Create()
		if err != nil {
			teardown()
			return nil, err
		}
		pool = append(pool, p)
	}
	mm.RestartNanos = uint64(k.Elapsed() - t0)
	mm.RestartPTECopies = k.Meter().PTECopies - pteBase

	// Ready to serve. The pool stays resident through the serve
	// phase, so its footprint is in the measured peak RSS. (Run
	// zeroes the meter first: the pool's creation bill is recorded
	// above, not in the serve-phase counters.)
	serve, err := prep.Run()
	if err != nil {
		teardown()
		return nil, err
	}
	mm.Phases = []*load.Metrics{warm, serve}

	// The wave moves on: this instance's pool is torn down by the
	// *next* restart in a real deploy; here it closes the books so
	// the leak invariant can be checked, then the machine's
	// allocations are recycled into the boot template's next stamp
	// (host-side only; bootTpl is nil on the cold path).
	teardown()
	if bootTpl != nil {
		bootTpl.Release(sys)
	}
	return dbg, nil
}
