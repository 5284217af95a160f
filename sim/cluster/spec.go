package cluster

import (
	"fmt"

	"repro/sim"
	"repro/sim/fault"
	"repro/sim/load"
)

// PoolSpec declares one named node pool: a homogeneous set of machines
// sharing a shape (CPUs, heap), a process-creation strategy, and
// scaling bounds. The autoscaler grows and shrinks each pool
// independently between MinMachines and MaxMachines.
type PoolSpec struct {
	// Name identifies the pool in reports and traces. Required,
	// unique within the Spec.
	Name string

	// Via is the strategy every machine in the pool creates request
	// workers (and its warm pool) through — the experiment variable:
	// a fork pool's machines pay Θ(heap) per worker, a spawn pool's
	// do not.
	Via sim.Strategy

	// CPUs is the machine shape (default 2). The balancer weighs
	// machines by it, so big machines take proportionally more
	// traffic.
	CPUs int

	// HeapBytes is each machine's resident server heap (default
	// 64 MiB) — what fork must duplicate page tables for, per worker,
	// at boot and per request while serving.
	HeapBytes uint64

	// Workers is the warm worker pool each machine pre-creates while
	// booting (default 4x the machine's CPUs) — the warm-up tax that
	// makes scale-out latency strategy-dependent.
	Workers int

	// MinMachines and MaxMachines bound the pool (defaults 1 and
	// max(4, MinMachines)). The initial MinMachines machines are
	// pre-warmed: ready at step 0, excluded from scale-out latency.
	// The autoscaler adds at most two machines per step, placed
	// round-robin over the cluster's three zones.
	MinMachines int
	MaxMachines int
}

// Phase is one segment of the arrival plan: PerStep requests arrive at
// each of Steps consecutive reconcile steps.
type Phase struct {
	Steps   int `json:"steps"`
	PerStep int `json:"per_step"`
}

// The autoscaler's policy and the cluster's layout are constants:
// every scenario runs with the same ones, and a Report echoes the
// zones, the target and the SLO.
const (
	// zones is the availability-zone count machines are spread over.
	// Each pool places its machines round-robin across every zone,
	// skipping cordoned ones.
	zones = 3

	// targetUtilization is the autoscaler's per-pool setpoint: scale
	// out when projected demand exceeds it, scale in when demand
	// stays under half of it.
	targetUtilization = 0.70

	// scaleDownAfter is how many consecutive low-utilization steps a
	// pool must see before retiring one machine.
	scaleDownAfter = 4

	// cordonSteps is how long after a kill a zone stays cordoned: new
	// machines are placed in other zones.
	cordonSteps = 4

	// sloSteps is the request latency objective reports score
	// against, in reconcile steps.
	sloSteps = 3

	// maxSurge caps the machines a pool adds per reconcile step.
	maxSurge = 2

	// balancerSeed seeds the balancer's deterministic candidate
	// hashing. Ties always break toward the lower machine id.
	balancerSeed = 1
)

// Spec declares a cluster: its node pools, the control loop's step,
// the requests' working set and the traffic. The zero value of every
// optional field selects a default; a Spec fully determines its
// Report, byte for byte, at any host parallelism.
type Spec struct {
	// Pools are the node pools, in declaration order (which fixes
	// machine-id assignment and report order). At least one.
	Pools []PoolSpec

	// ReconcileEveryNanos is the control loop's step — the virtual
	// time between autoscaling decisions (default 2ms). Reports
	// score requests against an SLO of three steps.
	ReconcileEveryNanos uint64

	// RequestWorkMiB is every request's private working set (default
	// 2): the worker allocates and write-touches this many MiB, so a
	// request costs CPU beyond its creation.
	RequestWorkMiB int

	// Traffic is the arrival plan (default one phase: 16 steps of 2
	// requests). The run continues past the last phase until every
	// queue drains. With SharedStream false (default) the stream is
	// offered to every pool in full — shadow traffic, so pools with
	// different strategies see identical demand and are directly
	// comparable. With SharedStream true each request is routed once,
	// across all pools' machines (bin-packing across shapes).
	Traffic []Phase

	// SharedStream routes each request once across all pools instead
	// of offering the full stream to every pool.
	SharedStream bool

	// MaxSteps bounds the run (default: traffic steps + 4096). A run
	// that hits it had standing backlog the fleet could never drain.
	MaxSteps int

	// Faults, when non-nil, is consulted once per live machine per
	// step at fault.PointMachineKill (magnitude = the machine's zone
	// index, time = the cluster clock): a non-OK decision kills the
	// machine, its queue is requeued, and its zone is cordoned.
	// fault.KillZone is the zone-outage schedule. The balancer also
	// probes fault.PointNetDeliver per ready machine (same magnitude
	// convention): a non-OK decision leaves the machine alive but
	// unreachable, so it takes no traffic — fault.ZonePartition is
	// the network-split schedule.
	Faults fault.Schedule
}

// withDefaults resolves every zero field, including per-pool shapes.
func (s Spec) withDefaults() Spec {
	if s.ReconcileEveryNanos == 0 {
		s.ReconcileEveryNanos = 2_000_000
	}
	if s.RequestWorkMiB == 0 {
		s.RequestWorkMiB = 2
	}
	if len(s.Traffic) == 0 {
		s.Traffic = []Phase{{Steps: 16, PerStep: 2}}
	}
	if s.MaxSteps == 0 {
		total := 0
		for _, ph := range s.Traffic {
			total += ph.Steps
		}
		s.MaxSteps = total + 4096
	}
	pools := make([]PoolSpec, len(s.Pools))
	for i, p := range s.Pools {
		if p.CPUs == 0 {
			p.CPUs = 2
		}
		if p.HeapBytes == 0 {
			p.HeapBytes = 64 << 20
		}
		if p.MinMachines == 0 {
			p.MinMachines = 1
		}
		if p.MaxMachines == 0 {
			p.MaxMachines = p.MinMachines
			if p.MaxMachines < 4 {
				p.MaxMachines = 4
			}
		}
		pools[i] = p
	}
	s.Pools = pools
	return s
}

// Validate reports whether the spec, after defaulting, is one Run can
// honour. Every failure is a *load.SpecError naming the offending
// field ("Pools[web].MinMachines"). The only invalid zero Spec field
// is Pools: a cluster needs at least one pool.
func (s Spec) Validate() error {
	return s.withDefaults().validate()
}

// specErr builds a cluster.Spec validation failure.
func specErr(field, format string, args ...any) *load.SpecError {
	return &load.SpecError{Spec: "cluster.Spec", Field: field, Reason: fmt.Sprintf(format, args...)}
}

// validate runs after withDefaults: zero fields are already resolved,
// so whatever it rejects, the caller wrote.
func (s Spec) validate() error {
	if len(s.Pools) == 0 {
		return specErr("Pools", "no pools declared (want >= 1)")
	}
	if s.RequestWorkMiB < 0 {
		return specErr("RequestWorkMiB", "%d MiB (want >= 0)", s.RequestWorkMiB)
	}
	for i, ph := range s.Traffic {
		if ph.Steps < 1 {
			return specErr(fmt.Sprintf("Traffic[%d].Steps", i), "%d steps (want >= 1)", ph.Steps)
		}
		if ph.PerStep < 0 {
			return specErr(fmt.Sprintf("Traffic[%d].PerStep", i), "%d requests per step (want >= 0)", ph.PerStep)
		}
	}
	seen := make(map[string]bool, len(s.Pools))
	for i, p := range s.Pools {
		field := func(f string) string {
			if p.Name == "" {
				return fmt.Sprintf("Pools[%d].%s", i, f)
			}
			return fmt.Sprintf("Pools[%s].%s", p.Name, f)
		}
		if p.Name == "" {
			return specErr(field("Name"), "pool has no name")
		}
		if seen[p.Name] {
			return specErr(field("Name"), "duplicate pool name %q", p.Name)
		}
		seen[p.Name] = true
		if !p.Via.Valid() {
			return specErr(field("Via"), "unknown strategy %d", int(p.Via))
		}
		if p.CPUs < 1 || p.CPUs > 64 {
			return specErr(field("CPUs"), "%d CPUs (want 1..64)", p.CPUs)
		}
		if p.Workers < 0 {
			return specErr(field("Workers"), "%d pool workers (want >= 0; 0 selects the default)", p.Workers)
		}
		if p.MinMachines < 1 {
			return specErr(field("MinMachines"), "%d machines (want >= 1)", p.MinMachines)
		}
		if p.MaxMachines > 64 {
			return specErr(field("MaxMachines"), "%d machines (want <= 64)", p.MaxMachines)
		}
		if p.MinMachines > p.MaxMachines {
			return specErr(field("MinMachines"), "min %d > max %d", p.MinMachines, p.MaxMachines)
		}
	}
	return nil
}
