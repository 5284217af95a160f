package experiments

import (
	"fmt"

	"repro/sim"
	"repro/sim/fleet"
	"repro/sim/load"
)

// ---------------------------------------------------------------
// E9 — the §5 multicore claim: fork is a poor fit for SMP hardware.
// COW-snapshotting a multithreaded server means downgrading its page
// tables while its threads run on other cores, which costs one TLB-
// shootdown IPI per remote core at the snapshot and another round per
// post-snapshot COW break. A fork-less kernel snapshots through the
// cross-process API: Θ(heap) copying, but no IPIs — so its cost is
// flat in the core count. The sweep drives sim/load's smpserver
// scenario (one spinning worker thread per CPU, snapshots taken
// mid-traffic) and the buildfarm scenario (parallel job launches) at
// 1/2/4/8 CPUs.
// ---------------------------------------------------------------

// CPUSweepPoint is one CPU count's measurements.
type CPUSweepPoint struct {
	CPUs int

	// Fork is the smpserver run snapshotting via COW fork; Flat is
	// the same run snapshotting via the fork-less cross-process
	// path (what spawn-only kernels do).
	Fork *load.Metrics
	Flat *load.Metrics

	// FarmFork/FarmSpawn are buildfarm throughput via fork vs spawn.
	FarmFork  *load.Metrics
	FarmSpawn *load.Metrics
}

// ForkIPIsPerSnapshot is the per-snapshot remote-core invalidation
// count under fork — the quantity that must grow with CPUs.
func (p CPUSweepPoint) ForkIPIsPerSnapshot() float64 {
	if p.Fork.Requests == 0 {
		return 0
	}
	return float64(p.Fork.TLBShootdowns) / float64(p.Fork.Requests)
}

// FlatIPIsPerSnapshot is the same figure for the fork-less snapshot
// (expected: 0 at every core count).
func (p CPUSweepPoint) FlatIPIsPerSnapshot() float64 {
	if p.Flat.Requests == 0 {
		return 0
	}
	return float64(p.Flat.TLBShootdowns) / float64(p.Flat.Requests)
}

// CPUSweepResult is E9.
type CPUSweepResult struct {
	HeapBytes uint64
	Snapshots int
	Points    []CPUSweepPoint
}

// CPUSweepConfig parameterizes CPUSweep; zero fields get defaults.
type CPUSweepConfig struct {
	HeapBytes uint64 // server heap (default 32 MiB)
	Snapshots int    // snapshot cycles per run (default 6)
	FarmJobs  int    // buildfarm jobs per CPU (default 16)
	CPUCounts []int  // default {1, 2, 4, 8}
}

// CPUSweep runs E9. Deterministic: same config, same numbers.
func CPUSweep(cfg CPUSweepConfig) (*CPUSweepResult, error) {
	if cfg.HeapBytes == 0 {
		cfg.HeapBytes = 32 * MiB
	}
	if cfg.Snapshots == 0 {
		cfg.Snapshots = 6
	}
	if cfg.FarmJobs == 0 {
		cfg.FarmJobs = 16
	}
	if len(cfg.CPUCounts) == 0 {
		cfg.CPUCounts = []int{1, 2, 4, 8}
	}
	res := &CPUSweepResult{HeapBytes: cfg.HeapBytes, Snapshots: cfg.Snapshots}
	// Four cells per CPU count, fanned out across host cores and
	// position-merged: [fork server, flat server, fork farm, spawn
	// farm] for each count, in order.
	var cfgs []load.Config
	for _, cpus := range cfg.CPUCounts {
		server := load.Config{
			Scenario: load.SMPServer, CPUs: cpus,
			Requests: cfg.Snapshots, HeapBytes: cfg.HeapBytes,
		}
		server.Via = sim.ForkExec
		cfgs = append(cfgs, server)
		server.Via = sim.Spawn // fork-less: snapshots via the cross-process API
		cfgs = append(cfgs, server)
		farm := load.Config{
			Scenario: load.BuildFarm, CPUs: cpus,
			Requests: cfg.FarmJobs * cpus, HeapBytes: cfg.HeapBytes,
		}
		farm.Via = sim.ForkExec
		cfgs = append(cfgs, farm)
		farm.Via = sim.Spawn
		cfgs = append(cfgs, farm)
	}
	ms, err := fleet.RunAll(cfgs)
	if err != nil {
		return nil, fmt.Errorf("cpusweep: %w", err)
	}
	for i, cpus := range cfg.CPUCounts {
		res.Points = append(res.Points, CPUSweepPoint{
			CPUs:      cpus,
			Fork:      ms[4*i],
			Flat:      ms[4*i+1],
			FarmFork:  ms[4*i+2],
			FarmSpawn: ms[4*i+3],
		})
	}
	return res, nil
}

// Render formats E9 as a table.
func (r *CPUSweepResult) Render() string {
	rows := [][]string{{
		"cpus",
		"fork IPIs/snap", "flat IPIs/snap",
		"fork COW copies", "fork server-cpu", "flat server-cpu",
		"farm fork req/s", "farm spawn req/s", "spawn/fork",
	}}
	for _, p := range r.Points {
		ratio := 0.0
		if p.FarmFork.RequestsPerVSec > 0 {
			ratio = p.FarmSpawn.RequestsPerVSec / p.FarmFork.RequestsPerVSec
		}
		rows = append(rows, []string{
			fmt.Sprint(p.CPUs),
			fmt.Sprintf("%.0f", p.ForkIPIsPerSnapshot()),
			fmt.Sprintf("%.0f", p.FlatIPIsPerSnapshot()),
			fmt.Sprint(p.Fork.PageCopies),
			fmt.Sprintf("%.1fms", float64(p.Fork.ServerCPUNanos)/1e6),
			fmt.Sprintf("%.1fms", float64(p.Flat.ServerCPUNanos)/1e6),
			fmt.Sprintf("%.0f", p.FarmFork.RequestsPerVSec),
			fmt.Sprintf("%.0f", p.FarmSpawn.RequestsPerVSec),
			fmt.Sprintf("%.2fx", ratio),
		})
	}
	head := fmt.Sprintf(
		"E9 — fork on multicore (heap %s, %d snapshots mid-traffic):\n"+
			"fork's snapshot tax grows with the core count (one IPI per remote core\n"+
			"per COW event); the fork-less snapshot and spawn-based job launch stay flat.\n\n",
		load.HumanBytes(r.HeapBytes), r.Snapshots)
	return head + renderTable(rows)
}
