package fleet

import (
	"repro/sim/load"
)

// runRebalancedMachine is the second half of a rebalance wave. Where
// the rolling restart kills the machine and makes its replacement
// re-pay the whole warm-up (heap dirtying plus pool creation, inside
// measured virtual time), the rebalance live-migrates the machine's
// resident worker to the replacement over the wire: a load.Migrate
// cell runs the iterative pre-copy — during which the machine still
// serves — and only the stop-and-copy residue is outage, recorded in
// mm.MigrateNanos. The machine then serves its second phase at its new
// home, bookkept identically to the warm phase. Like every phase, the
// cell's source machine is stamped from tc (cold-booted when tc is
// nil).
//
// A worker the checkpoint refuses to serialize (the strategy left it
// entangled with its machine — a vfork borrower's address space) can
// not be migrated: the machine falls back to the full rolling restart,
// and mm.RestartNanos carries the re-warm tax the refusal cost.
func runRebalancedMachine(ms machineSpec, tc *load.Templates, mm *MachineMetrics, warm *load.Metrics) error {
	mcfg := ms.loadConfig()
	mcfg.Scenario = load.Migrate
	mcfg.Requests = 1 // one migration: this machine's resident worker
	mcfg.Workers = 0  // default pre-copy rounds, not the pool size
	mig, err := tc.Run(mcfg)
	if err != nil {
		return err
	}

	if mig.MigrateRefused > 0 {
		// Not serializable one-sided: the entangled worker pins the
		// machine, and the wave pays the full restart for it.
		mm.MigrateRefused = mig.MigrateRefused
		return runRestartedMachine(ms, tc, mm, warm)
	}

	mm.MigrateNanos = mig.MigrateDowntimeNanos
	mm.MigratePagesSent = mig.MigratePagesSent
	serve, err := tc.Run(ms.loadConfig())
	if err != nil {
		return err
	}
	mm.Phases = []*load.Metrics{warm, serve}
	return nil
}
