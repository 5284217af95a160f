package fleet

import (
	"repro/sim/load"
)

// Machine is one incrementally managed fleet member: a persistent
// prefork server (load.Server) plus its fleet identity. Where Run
// drives a fixed population birth-to-death, Machines are added and
// removed mid-run — the primitive sim/cluster's autoscaler scales
// pools with. Booting one pays the warm-up tax (boot, heap dirtying,
// pool creation via the configured strategy) on the machine's own
// virtual clock; Retire tears it down and reports the leak books.
//
// A Machine is single-goroutine; distinct Machines are independent
// simulations and may run host-parallel (see ForEach).
type Machine struct {
	// ID is the fleet-unique machine id; cross-machine merges order
	// by it.
	ID int
	// Zone is the availability-zone index the machine is placed in.
	Zone int

	srv *load.Server
}

// MachineSample is one machine's exported metric sample: the fleet
// identity plus the server's live state — what the autoscaler's
// per-step watch sees.
type MachineSample struct {
	Machine int `json:"machine"`
	Zone    int `json:"zone"`
	load.Snapshot
}

// NewMachine boots machine id in the given zone and warms it to
// ready-to-serve. The load.Config is the machine's serving shape
// (heap, CPUs, worker pool, per-request work); its Scenario must be
// empty or prefork.
func NewMachine(id, zone int, cfg load.Config) (*Machine, error) {
	return NewMachineFrom(nil, id, zone, cfg)
}

// NewMachineFrom is NewMachine with a template cache: the machine is
// stamped from tc's frozen warmed server for cfg's shape (warmed on
// first use) instead of booting from scratch, so a cluster's scale-out
// host cost is O(live structures) per machine, not Θ(heap). A nil
// cache cold-boots, exactly like NewMachine. The machine's
// virtual-time behaviour — warm-up latency included — is identical
// either way.
func NewMachineFrom(tc *load.Templates, id, zone int, cfg load.Config) (*Machine, error) {
	srv, err := tc.Server(cfg)
	if err != nil {
		return nil, err
	}
	return &Machine{ID: id, Zone: zone, srv: srv}, nil
}

// Serve runs one batch of up to n requests under a virtual-time
// budget (0 = unbudgeted); see load.Server.ServeBatch.
func (m *Machine) Serve(n int, budgetNanos uint64) (load.Batch, error) {
	return m.srv.ServeBatch(n, budgetNanos)
}

// Sample exports the machine's live metrics.
func (m *Machine) Sample() MachineSample {
	return MachineSample{Machine: m.ID, Zone: m.Zone, Snapshot: m.srv.Sample()}
}

// WarmupNanos is the machine's boot-to-ready virtual time — the
// scale-out latency a cluster pays before this machine takes traffic.
func (m *Machine) WarmupNanos() uint64 { return m.srv.WarmupNanos() }

// WarmupPTECopies is the warm-up's page-table bill (Θ(heap) per pool
// worker under fork).
func (m *Machine) WarmupPTECopies() uint64 { return m.srv.WarmupPTECopies() }

// PeakRSSBytes is the machine's resident-memory high-water mark.
func (m *Machine) PeakRSSBytes() uint64 { return m.srv.PeakRSSBytes() }

// Elapsed is the machine's virtual clock (nanoseconds since boot).
func (m *Machine) Elapsed() uint64 { return m.srv.Elapsed() }

// Retire drains the machine — scale-down — and reports the resource
// books for the leak invariant. The machine cannot serve afterwards.
func (m *Machine) Retire() (load.DrainStats, error) { return m.srv.Drain() }
