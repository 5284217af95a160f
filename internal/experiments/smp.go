package experiments

import (
	"fmt"

	"repro/sim"
	"repro/sim/load"
)

// CPUSweep runs E9. A row is one CPU count: smpserver snapshotting via
// COW fork, then via the fork-less cross-process path (what spawn-only
// kernels do), then buildfarm via fork and via spawn.
//
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
func CPUSweep(heap uint64) (*Sweep, error) {
	const snapshots, farmJobs = 6, 16 // per run; buildfarm jobs per CPU
	s := &Sweep{head: fmt.Sprintf(
		"E9 — fork on multicore (heap %s, %d snapshots mid-traffic):\n"+
			"fork's snapshot tax grows with the core count (one IPI per remote core\n"+
			"per COW event); only the fork-less snapshot's IPI count is flat, at 0.\n"+
			"server-cpu is the CPU time the server's threads ran, summed over cores:\n"+
			"the service capacity the snapshots left, so higher is better. Spawn-based\n"+
			"job launch scales with the cores; fork's stalls.\n\n",
		load.HumanBytes(heap), snapshots)}
	for _, cpus := range []int{1, 2, 4, 8} {
		server := load.Config{Scenario: load.SMPServer, Via: sim.ForkExec, CPUs: cpus, Requests: snapshots, HeapBytes: heap}
		farm := load.Config{Scenario: load.BuildFarm, Via: sim.ForkExec, CPUs: cpus, Requests: farmJobs * cpus, HeapBytes: heap}
		flat, farmSpawn := server, farm
		flat.Via, farmSpawn.Via = sim.Spawn, sim.Spawn // fork-less: snapshots via the cross-process API
		s.rows = append(s.rows, []cell{{cfg: server}, {cfg: flat}, {cfg: farm}, {cfg: farmSpawn}})
	}
	s.cols = []column{
		{"cpus", func(r []cell) string { return fmt.Sprint(r[0].cfg.CPUs) }},
		{"fork IPIs/snap", func(r []cell) string { return fmt.Sprintf("%.0f", ipisPerSnapshot(r[0].m)) }},
		{"flat IPIs/snap", func(r []cell) string { return fmt.Sprintf("%.0f", ipisPerSnapshot(r[1].m)) }},
		{"fork COW copies", func(r []cell) string { return fmt.Sprint(r[0].m.PageCopies) }},
		{"fork server-cpu", func(r []cell) string { return ms(r[0].m.ServerCPUNanos) }},
		{"flat server-cpu", func(r []cell) string { return ms(r[1].m.ServerCPUNanos) }},
		{"farm fork req/s", func(r []cell) string { return rate(r[2].m.RequestsPerVSec) }},
		{"farm spawn req/s", func(r []cell) string { return rate(r[3].m.RequestsPerVSec) }},
		{"spawn/fork", func(r []cell) string {
			return fmt.Sprintf("%.2fx", ratio(r[3].m.RequestsPerVSec, r[2].m.RequestsPerVSec))
		}},
	}
	return s.run()
}

// ipisPerSnapshot is a smpserver run's remote-core invalidations per
// snapshot: under fork it must grow with CPUs; fork-less, it stays 0.
func ipisPerSnapshot(m *load.Metrics) float64 {
	return ratio(float64(m.TLBShootdowns), float64(m.Requests))
}
