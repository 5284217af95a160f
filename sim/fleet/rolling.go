package fleet

import (
	"repro/sim/load"
)

// runRestartedMachine is the second half of a rolling restart: the
// machine's replacement instance, a load.Server of the machine's shape
// with a Workers-sized pool. Its warm-up — dirty the server heap,
// pre-create the worker pool through the configured strategy — is the
// restart tax: under fork every pool worker duplicates the freshly
// dirtied heap's page tables (Θ(heap) each); under spawn or the
// builder the pool comes up at a flat cost. The tax goes in
// mm.RestartNanos and its page-table bill, which the serve phase's
// meter reset would otherwise discard, in mm.RestartPTECopies. The
// instance then serves its share of traffic with the pool resident
// (Server.Run, bookkept identically to the warm phase), and the
// machine's phases are recorded as warm then serve. The instance is
// stamped from tc's server template — which records the warm-up's
// virtual cost, so stamping moves no virtual nanosecond — or
// cold-booted when tc is nil.
func runRestartedMachine(ms machineSpec, tc *load.Templates, mm *MachineMetrics, warm *load.Metrics) error {
	cfg := ms.loadConfig()
	cfg.Scenario = load.Prefork // the wave serves prefork-style traffic
	cfg.Workers = ms.Workers
	srv, err := tc.Server(cfg)
	if err != nil {
		return err
	}
	mm.RestartNanos = srv.WarmupNanos()
	mm.RestartPTECopies = srv.WarmupPTECopies()
	serve, err := srv.Run()
	if err != nil {
		return err
	}
	mm.Phases = []*load.Metrics{warm, serve}

	// The wave moves on: this instance's pool is torn down by the
	// *next* restart in a real deploy; here it closes the books, and a
	// leak fails the machine.
	return srv.Drain()
}
