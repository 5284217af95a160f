package experiments

import (
	"fmt"
	"runtime"
	"time"

	"repro/sim"
	"repro/sim/fleet"
	"repro/sim/load"
)

// ---------------------------------------------------------------
// E14 — the host-time trajectory: how fast does this computer
// simulate fleets, and in how much memory. E13 measured one lever
// (template stamping); E14 measures the whole host-scale pipeline —
// stamp rate (fresh vs recycled shells), machines simulated per host
// second over a fleet-size ladder, simulated requests per host second,
// and the process's peak RSS — the numbers `BENCH_HOST.json` tracks
// next to the virtual-time BENCH_SIM.json so raw-speed wins (or
// regressions) are visible in review, not just felt. Host-timed, so
// the numbers vary run to run and machine to machine; the trajectory
// file records them per runner, and CI publishes a fresh one as an
// informational artifact rather than gating on it.
// ---------------------------------------------------------------

// HostPoint is one fleet size's host-side measurements.
type HostPoint struct {
	// Machines is the fleet size of this point (uniform scenario).
	Machines int
	// HostNanos is the wall-clock the whole fleet run took.
	HostNanos int64
	// MachinesPerSec is machines simulated per host second.
	MachinesPerSec float64
	// SimRequests is the fleet's total simulated request count.
	SimRequests uint64
	// SimReqPerHostSec is simulated requests completed per host
	// second — the headline throughput number (the virtual-time rate
	// is in ReqPerVSec for contrast).
	SimReqPerHostSec float64
	// ReqPerVSec is the fleet's aggregate virtual-time rate
	// (Aggregate.RequestsPerVSec) — a pure function of the spec,
	// unlike everything else here.
	ReqPerVSec float64
	// PeakRSSBytes is the host process's peak resident set after the
	// run (worst worker process when sharded).
	PeakRSSBytes uint64
}

// HostBenchResult is E14: the stamp-rate probes plus the ladder.
type HostBenchResult struct {
	// GOMAXPROCS and Shards record the host shape the numbers were
	// measured on.
	GOMAXPROCS int
	Shards     int
	// HeapBytes and RequestsPerMachine pin the per-machine workload.
	HeapBytes          uint64
	RequestsPerMachine int

	// StampNanos is the mean host time to stamp one machine from a
	// frozen template into a fresh shell; RecycledStampNanos stamps
	// into a recycled shell (sim.Template.Release), the fleet loop's
	// steady state.
	StampNanos         int64
	RecycledStampNanos int64

	Points []HostPoint
}

// HostBenchConfig parameterizes HostBench; zero fields get defaults.
type HostBenchConfig struct {
	Sizes         []int  // fleet-size ladder (default {256, 1024, 4096})
	Requests      int    // requests per machine (default 8)
	HeapBytes     uint64 // per-machine server heap (default 4 MiB)
	Shards        int    // worker processes per fleet run (0 = in-process)
	StampMachines int    // stamps per stamp-rate probe (default 2048)
}

// stampRates measures the template stamp paths: clone into a fresh
// shell per stamp, then clone into the recycled shell of the previous
// stamp — the allocation-reuse fast path a streaming fleet sits on.
func stampRates(heap uint64, stamps int) (fresh, recycled int64, err error) {
	cfg := load.Config{Scenario: load.Prefork, Via: sim.Spawn, CPUs: 1, HeapBytes: heap}
	shape := cfg.Shape()
	sys, err := sim.NewSystem(
		sim.WithRAM(shape.RAMBytes),
		sim.WithCPUs(shape.CPUs),
		sim.WithUserland("true", "echo", "cat", "hog", "smpspin"),
	)
	if err != nil {
		return 0, 0, err
	}
	if _, err := load.Prepare(sys, cfg); err != nil {
		return 0, 0, err
	}
	tpl, err := sys.Snapshot()
	if err != nil {
		return 0, 0, err
	}

	t0 := time.Now()
	for i := 0; i < stamps; i++ {
		if _, err := tpl.Clone(); err != nil {
			return 0, 0, err
		}
	}
	fresh = time.Since(t0).Nanoseconds() / int64(stamps)

	t0 = time.Now()
	for i := 0; i < stamps; i++ {
		clone, err := tpl.Clone()
		if err != nil {
			return 0, 0, err
		}
		tpl.Release(clone)
	}
	recycled = time.Since(t0).Nanoseconds() / int64(stamps)
	return fresh, recycled, nil
}

// HostBench runs E14. Host-timed end to end: every number but the
// virtual-time rate varies with the machine it runs on.
func HostBench(cfg HostBenchConfig) (*HostBenchResult, error) {
	if len(cfg.Sizes) == 0 {
		cfg.Sizes = []int{256, 1024, 4096}
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 8
	}
	if cfg.HeapBytes == 0 {
		cfg.HeapBytes = 4 * MiB
	}
	if cfg.StampMachines <= 0 {
		cfg.StampMachines = 2048
	}
	res := &HostBenchResult{
		GOMAXPROCS:         runtime.GOMAXPROCS(0),
		Shards:             cfg.Shards,
		HeapBytes:          cfg.HeapBytes,
		RequestsPerMachine: cfg.Requests,
	}
	var err error
	if res.StampNanos, res.RecycledStampNanos, err = stampRates(cfg.HeapBytes, cfg.StampMachines); err != nil {
		return nil, fmt.Errorf("stamp probe: %w", err)
	}
	for _, n := range cfg.Sizes {
		fr, err := fleet.Run(fleet.Spec{
			Machines:  n,
			Scenario:  fleet.Uniform,
			Via:       sim.Spawn,
			CPUs:      1,
			Requests:  cfg.Requests,
			HeapBytes: cfg.HeapBytes,
			Shards:    cfg.Shards,
		})
		if err != nil {
			return nil, fmt.Errorf("fleet of %d: %w", n, err)
		}
		secs := fr.HostElapsed.Seconds()
		pt := HostPoint{
			Machines:     n,
			HostNanos:    fr.HostElapsed.Nanoseconds(),
			SimRequests:  fr.Aggregate.TotalRequests,
			ReqPerVSec:   fr.Aggregate.RequestsPerVSec,
			PeakRSSBytes: fr.HostPeakRSSBytes,
		}
		if secs > 0 {
			pt.MachinesPerSec = float64(n) / secs
			pt.SimReqPerHostSec = float64(fr.Aggregate.TotalRequests) / secs
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// Render formats E14 as a claim table.
func (r *HostBenchResult) Render() string {
	rows := [][]string{{
		"machines", "host time", "machines/s", "sim req/host-s", "req/virt-s", "peak RSS",
	}}
	for _, p := range r.Points {
		rows = append(rows, []string{
			fmt.Sprint(p.Machines),
			fmt.Sprintf("%.1fms", float64(p.HostNanos)/1e6),
			fmt.Sprintf("%.0f", p.MachinesPerSec),
			fmt.Sprintf("%.0f", p.SimReqPerHostSec),
			fmt.Sprintf("%.0f", p.ReqPerVSec),
			HumanBytes(p.PeakRSSBytes),
		})
	}
	head := fmt.Sprintf("E14 — host-time trajectory: fleets of spawn-strategy prefork machines (%s heap, %d requests\n",
		HumanBytes(r.HeapBytes), r.RequestsPerMachine) +
		fmt.Sprintf("each) simulated on GOMAXPROCS=%d, %d shard worker process(es). HOST wall-clock — unlike the\n",
			r.GOMAXPROCS, r.Shards) +
		"virtual-time tables these numbers vary run to run; BENCH_HOST.json records the trajectory.\n" +
		fmt.Sprintf("Template stamp: %.1fµs/machine fresh, %.1fµs/machine into a recycled shell.\n\n",
			float64(r.StampNanos)/1e3, float64(r.RecycledStampNanos)/1e3)
	return head + renderTable(rows)
}
