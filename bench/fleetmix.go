package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/mem"
	"repro/sim"
	"repro/sim/fault"
	"repro/sim/fleet"
	"repro/sim/load"
)

// fleet-mix is a fleet of 2-CPU machines with a 16 MiB heap, each one
// load.Templates.Run from a shared template cache, run by fleet.ForEach
// on min(2, host CPUs) goroutines. Machines come from six kinds
// in equal shares. Templates, the net fabric, checkpoint/restore and the
// fault engine do the host work here; the single-machine workloads
// never touch them.
var fleetMix = workload{
	name: "fleet-mix",
	// One round: 5% of 12,000 machines.
	warmup:   fleetPopulation,
	hostCPUs: 2,
	build:    newFleetMix,
}

// fleetKind is one machine kind. faults, when set, derives the
// machine's chaos schedule from its stable id.
type fleetKind struct {
	scenario load.Scenario
	via      sim.Strategy
	requests int
	faults   func(seed uint64, machine int) fault.Schedule
}

var fleetKinds = []fleetKind{
	{load.Prefork, sim.Spawn, 24, nil},
	{load.Prefork, sim.ForkExec, 24, fault.Chaos},
	{load.NetLB, sim.ForkExec, 24, nil},
	{load.KVShard, sim.Spawn, 24, fault.NetChaos},
	{load.Migrate, sim.ForkExec, 2, nil},
	{load.Migrate, sim.Spawn, 2, nil},
}

const (
	// fleetPopulation machines make a round; machine id i is of kind
	// i%6, and its fault schedule is keyed on i, never on its position
	// in the seeded order.
	fleetPopulation = 600
	fleetCPUs       = 2
	fleetHeap       = 16 << 20
	fleetFaultSeed  = 1
)

type fleetMixInst struct {
	tc      *load.Templates
	workers int
	rounds  *shuffler // of machine ids

	mu sync.Mutex
	c  counts
	// stamped keeps one machine of each kind's metrics JSON for the
	// stamped-equals-cold check.
	stamped map[int][]byte
}

func newFleetMix(seed uint64) (instance, error) {
	ids := make([]int, fleetPopulation)
	for id := range ids {
		ids[id] = id
	}
	return &fleetMixInst{
		tc:      load.NewTemplates(),
		workers: runtime.GOMAXPROCS(0),
		rounds:  newShuffler(seed, ids),
		stamped: map[int][]byte{},
	}, nil
}

// fleetConfig is machine id's load.
func fleetConfig(id int) load.Config {
	k := fleetKinds[id%len(fleetKinds)]
	cfg := load.Config{Scenario: k.scenario, Via: k.via, CPUs: fleetCPUs, HeapBytes: fleetHeap, Requests: k.requests}
	if k.faults != nil {
		cfg.Faults = k.faults(fleetFaultSeed, id)
	}
	return cfg
}

func (f *fleetMixInst) round(rec *recorder, tr *tracer) error {
	ids := f.rounds.next()
	return fleet.ForEach(f.workers, len(ids), func(i int) error {
		rec.op(f.machine(ids[i], tr.beginOp()))
		return nil // a failed machine is a failed op, not a stopped fleet
	})
}

// machine runs one fleet machine and checks its report: every request
// it attempted is accounted for as served or lost to an injected fault,
// and no migrant was refused.
func (f *fleetMixInst) machine(id int, ot *opTrace) opResult {
	defer ot.end()
	t0 := time.Now()
	ot.start("fleet.worker")
	cfg := fleetConfig(id)
	res := opResult{class: id % len(fleetKinds), attempted: uint64(cfg.Requests)}
	ot.start("load.run")
	m, err := f.tc.Run(cfg)
	if err != nil {
		ot.stop(0)
		ot.stop(0)
		res.host = time.Since(t0)
		res.err = fmt.Errorf("machine %d (%s via %v): %w", id, cfg.Scenario, cfg.Via, err)
		return res
	}
	virt := time.Duration(m.VirtualNanos)
	ot.stop(virt)
	res.virt = virt
	res.requests = m.Requests
	res.lost = m.FailedRequests
	res.peakPages = m.PeakRSSBytes >> mem.PageShift
	switch {
	case m.Requests+m.FailedRequests != res.attempted:
		res.err = fmt.Errorf("machine %d (%s via %v): %d served + %d lost != %d requests",
			id, cfg.Scenario, cfg.Via, m.Requests, m.FailedRequests, cfg.Requests)
	case m.MigrateRefused != 0:
		res.err = fmt.Errorf("machine %d (%s via %v): %d migrants refused", id, cfg.Scenario, cfg.Via, m.MigrateRefused)
	}
	f.record(id, m)
	ot.stop(virt)
	res.host = time.Since(t0)
	return res
}

// record folds one machine's counters in and keeps the first machine
// of each kind's report for checkEnd.
func (f *fleetMixInst) record(id int, m *load.Metrics) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.c[cPTECopies] += m.PTECopies
	f.c[cPageFaults] += m.PageFaults
	f.c[cTLBShootdowns] += m.TLBShootdowns
	f.c[cPageCopies] += m.PageCopies
	f.c[cPageZeroes] += m.PageZeroes
	f.c[cSyscalls] += m.Syscalls
	f.c[cInstructions] += m.Instructions
	f.c[cContextSwitches] += m.ContextSwitches
	f.c[cMigratePages] += m.MigratePagesSent
	f.c[cNetPackets] += m.NetPacketsSent
	f.c[cNetDrops] += m.NetDrops
	f.c[cNetRetries] += m.NetRetries
	if id < len(fleetKinds) && f.stamped[id] == nil {
		if data, err := json.Marshal(m); err == nil {
			f.stamped[id] = data
		}
	}
}

// counters: load.Metrics carries no page-table node count, so
// pagetable.nodes_per_op reads 0 on this workload.
func (f *fleetMixInst) counters() counts {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.c
}

// checkEnd re-runs one machine of each kind cold (load.Run, no
// template) and requires its report to equal the stamped run's byte
// for byte.
func (f *fleetMixInst) checkEnd(*recorder) []string {
	var bad []string
	for id := range fleetKinds {
		cfg := fleetConfig(id)
		stamped := f.stamped[id]
		cold, err := load.Run(cfg)
		if err != nil {
			bad = append(bad, fmt.Sprintf("cold run of machine %d: %v", id, err))
			continue
		}
		data, err := json.Marshal(cold)
		if err != nil {
			bad = append(bad, fmt.Sprintf("machine %d: %v", id, err))
			continue
		}
		if string(data) != string(stamped) {
			bad = append(bad, fmt.Sprintf("machine %d (%s via %v): stamped report differs from a cold run", id, cfg.Scenario, cfg.Via))
		}
	}
	return bad
}

// probeSystem stamps a prefork machine from the workload's own cache.
func (f *fleetMixInst) probeSystem() (*sim.System, error) {
	cfg := fleetConfig(0)
	t, err := f.tc.Get(cfg)
	if err != nil {
		return nil, err
	}
	p, err := t.Stamp(cfg)
	if err != nil {
		return nil, err
	}
	return p.System(), nil
}
