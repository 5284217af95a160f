package cluster

import (
	"fmt"
	"strings"

	"repro/sim"
	"repro/sim/fault"
)

// Scenario names a cluster-level workload preset. The string form is
// the CLI name (`forkbench cluster -scenario ...`).
type Scenario string

// Cluster scenarios.
const (
	// Surge is the headline A/B experiment: a fork pool and a spawn
	// pool, identical shapes, each offered the same traffic — a calm
	// baseline, then a spike that forces both to scale out. The fork
	// pool's new machines pay Θ(heap) per pool worker warming up, so
	// its scale-out latency grows with the heap while the spawn
	// pool's stays flat — and the backlog that piles up while fork
	// capacity is still booting is the SLO gap E12 reports.
	Surge Scenario = "surge"
	// ZoneOutage kills every machine in one availability zone
	// mid-run (fault.KillZone): their requests requeue, the zone is
	// cordoned, and the autoscaler backfills the pool floor in the
	// surviving zones.
	ZoneOutage Scenario = "zoneoutage"
	// HeteroPools shares one request stream across a 1/2/4/8-CPU
	// machine ladder: the balancer weighs machines by shape, so big
	// machines take proportionally more traffic (bin-packing).
	HeteroPools Scenario = "heteropools"
	// NetSplit partitions one availability zone off the network
	// mid-run (fault.ZonePartition): its machines stay alive but the
	// balancer's reachability probe excludes them, so traffic
	// concentrates in the surviving zones until the partition heals —
	// an outage with no kills, no requeues, and full recovery.
	NetSplit Scenario = "netsplit"
)

// Scenarios lists every cluster scenario, in a fixed order.
func Scenarios() []Scenario { return []Scenario{Surge, ZoneOutage, HeteroPools, NetSplit} }

// ParseScenario maps a CLI name to its Scenario; an unknown name's
// error lists every name Scenarios has.
func ParseScenario(name string) (Scenario, error) {
	var names []string
	for _, s := range Scenarios() {
		if name == string(s) {
			return s, nil
		}
		names = append(names, string(s))
	}
	return "", fmt.Errorf("cluster: unknown scenario %q (%s)", name, strings.Join(names, "|"))
}

// surgeStep is the surge preset's reconcile interval: wide enough
// that one 2-CPU machine clears a request per step even under fork.
const surgeStep = 4_000_000

// SurgeSpec builds the Surge scenario at the given server heap: fork
// and spawn pools of identical shape (2 CPUs, 12 warm workers, 3..8
// machines), a calm baseline, a 6x spike, and an idle tail that lets
// the pools scale back down. Each pool is named after its strategy.
func SurgeSpec(heapBytes uint64) Spec {
	pool := func(via sim.Strategy) PoolSpec {
		return PoolSpec{
			Name: via.Name(), Via: via, CPUs: 2, HeapBytes: heapBytes,
			Workers: 12, MinMachines: 3, MaxMachines: 8,
		}
	}
	return Spec{
		Pools:               []PoolSpec{pool(sim.ForkExec), pool(sim.Spawn)},
		ReconcileEveryNanos: surgeStep,
		RequestWorkMiB:      4,
		Traffic: []Phase{
			{Steps: 8, PerStep: 1},   // baseline: the floor serves comfortably
			{Steps: 16, PerStep: 24}, // spike: both pools must scale out
			{Steps: 24, PerStep: 0},  // idle tail: drain, then scale back down
		},
	}
}

// ZoneOutageSpec builds the ZoneOutage scenario: one spawn pool
// spread over 3 zones, steady traffic, and an outage that kills every
// zone-0 machine between steps 10 and 20. The pool floor backfills in
// the surviving zones while zone 0 stays cordoned.
func ZoneOutageSpec(heapBytes uint64) Spec {
	return Spec{
		Pools: []PoolSpec{{
			Name: "web", Via: sim.Spawn, CPUs: 2, HeapBytes: heapBytes,
			MinMachines: 3, MaxMachines: 6,
		}},
		ReconcileEveryNanos: surgeStep,
		RequestWorkMiB:      4,
		Traffic:             []Phase{{Steps: 40, PerStep: 4}},
		Faults:              fault.KillZone(0, 10*surgeStep, 20*surgeStep),
	}
}

// HeteroPoolsSpec builds the HeteroPools scenario: one shared request
// stream over four single-machine pools shaped 1/2/4/8 CPUs, so the
// balancer's CPU weighting — not pool identity — decides placement.
func HeteroPoolsSpec(heapBytes uint64) Spec {
	pool := func(cpus int) PoolSpec {
		return PoolSpec{
			Name: fmt.Sprintf("cpu%d", cpus), Via: sim.Spawn, CPUs: cpus,
			HeapBytes: heapBytes, MinMachines: 1, MaxMachines: 2,
		}
	}
	return Spec{
		Pools:               []PoolSpec{pool(1), pool(2), pool(4), pool(8)},
		ReconcileEveryNanos: surgeStep,
		RequestWorkMiB:      4,
		SharedStream:        true,
		Traffic:             []Phase{{Steps: 8, PerStep: 8}, {Steps: 12, PerStep: 16}},
	}
}

// NetSplitSpec builds the NetSplit scenario: one spawn pool over 3
// zones, steady traffic, and a partition that cuts zone 0 off the
// network between steps 10 and 20. The machines there stay alive —
// nothing is killed or requeued — but the balancer's reachability
// probe routes around them until the partition heals.
func NetSplitSpec(heapBytes uint64) Spec {
	return Spec{
		Pools: []PoolSpec{{
			Name: "web", Via: sim.Spawn, CPUs: 2, HeapBytes: heapBytes,
			MinMachines: 3, MaxMachines: 6,
		}},
		ReconcileEveryNanos: surgeStep,
		RequestWorkMiB:      4,
		Traffic:             []Phase{{Steps: 40, PerStep: 4}},
		Faults:              fault.ZonePartition{Zone: 0, From: 10 * surgeStep, Until: 20 * surgeStep},
	}
}

// SpecFor builds the named scenario's Spec at the given heap (0
// selects 64 MiB).
func SpecFor(s Scenario, heapBytes uint64) (Spec, error) {
	if heapBytes == 0 {
		heapBytes = 64 << 20
	}
	switch s {
	case Surge:
		return SurgeSpec(heapBytes), nil
	case ZoneOutage:
		return ZoneOutageSpec(heapBytes), nil
	case HeteroPools:
		return HeteroPoolsSpec(heapBytes), nil
	case NetSplit:
		return NetSplitSpec(heapBytes), nil
	}
	return Spec{}, fmt.Errorf("cluster: unknown scenario %q", s)
}
