package load_test

import (
	"testing"

	"repro/sim"
	"repro/sim/load"
)

// TestPreforkDrainsAllRequests checks the closed loop completes and
// the counters add up under each strategy.
func TestPreforkDrainsAllRequests(t *testing.T) {
	for _, via := range sim.Strategies() {
		if via == sim.EmulatedFork {
			continue // Θ(resident bytes) per creation; covered once below
		}
		t.Run(via.String(), func(t *testing.T) {
			m, err := load.Run(load.Config{
				Scenario:  load.Prefork,
				Via:       via,
				Requests:  24,
				HeapBytes: 4 << 20,
			})
			if err != nil {
				t.Fatal(err)
			}
			if m.Requests != 24 || m.Creations != 24 {
				t.Errorf("requests=%d creations=%d, want 24/24", m.Requests, m.Creations)
			}
			if m.VirtualNanos == 0 || m.RequestsPerVSec == 0 {
				t.Errorf("no virtual time recorded: %+v", m)
			}
			if m.PeakRSSBytes < m.HeapBytes {
				t.Errorf("peak RSS %d below resident heap %d", m.PeakRSSBytes, m.HeapBytes)
			}
		})
	}
}

// TestPreforkEmulatedFork runs the deliberately slow strategy once at
// a tiny scale so the path stays covered.
func TestPreforkEmulatedFork(t *testing.T) {
	m, err := load.Run(load.Config{
		Scenario: load.Prefork, Via: sim.EmulatedFork,
		Requests: 2, HeapBytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Requests != 2 {
		t.Errorf("requests = %d, want 2", m.Requests)
	}
}

// TestPreforkThroughputOrdering is the paper's §5 claim at load-test
// scale: with a large server heap, spawn and the builder sustain
// higher request throughput than fork+exec.
func TestPreforkThroughputOrdering(t *testing.T) {
	run := func(via sim.Strategy) *load.Metrics {
		t.Helper()
		m, err := load.Run(load.Config{
			Scenario:  load.Prefork,
			Via:       via,
			Requests:  16,
			HeapBytes: 256 << 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	fork := run(sim.ForkExec)
	spawn := run(sim.Spawn)
	builder := run(sim.Builder)
	if spawn.RequestsPerVSec <= fork.RequestsPerVSec {
		t.Errorf("spawn %.0f req/vs not above fork %.0f at 256MiB heap",
			spawn.RequestsPerVSec, fork.RequestsPerVSec)
	}
	if builder.RequestsPerVSec <= fork.RequestsPerVSec {
		t.Errorf("builder %.0f req/vs not above fork %.0f at 256MiB heap",
			builder.RequestsPerVSec, fork.RequestsPerVSec)
	}
	// And fork pays for the heap in PTE copies; spawn must not.
	if fork.PTECopies < 16*(256<<20)/4096 {
		t.Errorf("fork copied only %d PTEs; expected ≥ one per heap page per request", fork.PTECopies)
	}
	if spawn.PTECopies >= fork.PTECopies/10 {
		t.Errorf("spawn PTE copies %d suspiciously close to fork's %d", spawn.PTECopies, fork.PTECopies)
	}
}

// TestHeapBytesIsTheMappedHeap: every cell reports the heap its
// machines mapped — HeapBytes rounded up to the page, a 2 MiB page on
// huge pages — so the same flags report one heap_bytes whichever
// scenario runs them, single-machine or network cell.
func TestHeapBytesIsTheMappedHeap(t *testing.T) {
	for _, c := range []struct {
		heap, want uint64
		huge       bool
	}{
		{heap: 5000, want: 8 << 10},
		{heap: 3 << 20, want: 4 << 20, huge: true},
	} {
		for _, s := range []load.Scenario{load.Prefork, load.NetLB, load.KVShard, load.Migrate} {
			m, err := load.Run(load.Config{
				Scenario: s, Via: sim.Spawn, Requests: 2,
				HeapBytes: c.heap, HugePages: c.huge,
			})
			if err != nil {
				t.Fatal(err)
			}
			if m.HeapBytes != c.want {
				t.Errorf("%s at %d B (huge %v) reports heap_bytes %d, want the mapped %d",
					s, c.heap, c.huge, m.HeapBytes, c.want)
			}
		}
	}
}

// TestPeakRSSCoversHeap: every run's peak RSS covers the heap its
// machines hold resident from warm-up to drain, whatever the scenario
// and strategy. The cell samples each machine's peak when it opens, so
// a run that samples nothing later — a migration the checkpoint
// refuses — still reports its source's heap.
func TestPeakRSSCoversHeap(t *testing.T) {
	for _, s := range load.Scenarios() {
		for _, via := range sim.Strategies() {
			m, err := load.Run(load.Config{Scenario: s, Via: via, Requests: 2, HeapBytes: 4 << 20})
			if err != nil {
				t.Fatalf("%s via %v: %v", s, via, err)
			}
			if m.PeakRSSBytes < m.HeapBytes {
				t.Errorf("%s via %v: peak RSS %d below its mapped heap %d", s, via, m.PeakRSSBytes, m.HeapBytes)
			}
		}
	}
}

// TestPipelineFarm drains pipelines and counts one creation per stage.
func TestPipelineFarm(t *testing.T) {
	m, err := load.Run(load.Config{
		Scenario:  load.Pipeline,
		Via:       sim.Spawn,
		Requests:  8,
		Workers:   4,
		HeapBytes: 4 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Requests != 8 {
		t.Errorf("requests = %d, want 8", m.Requests)
	}
	if m.Creations != 8*4 {
		t.Errorf("creations = %d, want %d", m.Creations, 8*4)
	}
}

// TestCheckpointPaysCOWTax: under COW fork, mutating the heap while a
// snapshot is held must copy the mutated pages — and only those.
func TestCheckpointPaysCOWTax(t *testing.T) {
	const heap = 16 << 20
	const mutate = heap / 8 // what each cycle rewrites
	const cycles = 8
	m, err := load.Run(load.Config{
		Scenario:  load.Checkpoint,
		Via:       sim.ForkExec,
		Requests:  cycles,
		HeapBytes: heap,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantCopies := uint64(cycles * mutate / 4096)
	if m.PageCopies < wantCopies {
		t.Errorf("page copies %d, want ≥ %d (one per mutated page)", m.PageCopies, wantCopies)
	}
	if m.PageCopies > 2*wantCopies {
		t.Errorf("page copies %d, want ≈ %d — far more than the mutated set", m.PageCopies, wantCopies)
	}
}

// TestCheckpointForklessCopiesEverything: the fork-less snapshot path
// copies Θ(resident bytes) regardless of the mutation rate.
func TestCheckpointForklessCopiesEverything(t *testing.T) {
	m, err := load.Run(load.Config{
		Scenario:  load.Checkpoint,
		Via:       sim.Spawn,
		Requests:  2,
		HeapBytes: 4 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Snapshotting through cross-process reads/writes zeroes and
	// fills fresh frames for the whole heap each cycle.
	if m.PageZeroes < 2*(4<<20)/4096 {
		t.Errorf("fork-less snapshot zeroed %d pages; want ≥ one per heap page per cycle", m.PageZeroes)
	}
}

// TestForkStormHoldsBurstAlive checks the wave really is concurrent:
// at peak, every child's stack and image are resident on top of the
// server heap.
func TestForkStormHoldsBurstAlive(t *testing.T) {
	const burst = 100
	m, err := load.Run(load.Config{
		Scenario:  load.ForkStorm,
		Via:       sim.Spawn,
		Requests:  2,
		Workers:   burst,
		HeapBytes: 4 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Creations != 2*burst || m.Requests != 2*burst {
		t.Errorf("creations=%d requests=%d, want %d", m.Creations, m.Requests, 2*burst)
	}
	// Each spawned child carries at least a page of stack; the peak
	// must sit clearly above the lone server heap.
	if m.PeakRSSBytes < m.HeapBytes+burst*4096 {
		t.Errorf("peak RSS %d does not reflect %d live children over a %d heap",
			m.PeakRSSBytes, burst, m.HeapBytes)
	}
}

// TestParseScenario round-trips every name and rejects junk with an
// error that lists every name, in Scenarios order.
func TestParseScenario(t *testing.T) {
	for _, s := range load.Scenarios() {
		got, err := load.ParseScenario(string(s))
		if err != nil || got != s {
			t.Errorf("ParseScenario(%q) = %v, %v", s, got, err)
		}
	}
	const want = `load: unknown scenario "bogus" (prefork|pipeline|checkpoint|forkstorm|smpserver|buildfarm|netlb|kvshard|migrate)`
	if _, err := load.ParseScenario("bogus"); err == nil || err.Error() != want {
		t.Errorf("ParseScenario(bogus) = %v, want %s", err, want)
	}
}

// TestSMPServerShootdownTaxGrowsWithCPUs is §5's multicore claim at
// the workload level: snapshotting a multithreaded server via fork
// costs remote-core IPIs that grow with the CPU count; the fork-less
// snapshot pays none at any count.
func TestSMPServerShootdownTaxGrowsWithCPUs(t *testing.T) {
	perSnap := func(via sim.Strategy, cpus int) float64 {
		t.Helper()
		m, err := load.Run(load.Config{
			Scenario: load.SMPServer, Via: via,
			CPUs: cpus, Requests: 3, HeapBytes: 8 << 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		if m.Requests != 3 || m.Creations != 3 {
			t.Fatalf("snapshots=%d creations=%d, want 3/3", m.Requests, m.Creations)
		}
		if m.ServerCPUNanos == 0 {
			t.Fatal("server threads got no CPU time — no traffic mid-snapshot")
		}
		return float64(m.TLBShootdowns) / float64(m.Requests)
	}
	prev := -1.0
	for _, cpus := range []int{1, 2, 4} {
		fork := perSnap(sim.ForkExec, cpus)
		if fork <= prev {
			t.Errorf("fork IPIs/snapshot not growing: %.0f at %d CPUs after %.0f", fork, cpus, prev)
		}
		prev = fork
		if cpus == 1 && fork != 0 {
			t.Errorf("1-CPU fork snapshot charged %.0f IPIs", fork)
		}
		if flat := perSnap(sim.Spawn, cpus); flat != 0 {
			t.Errorf("fork-less snapshot charged %.0f IPIs at %d CPUs", flat, cpus)
		}
	}
}

// TestBuildFarmScalesWithCPUs: the parallel build drains every job,
// and the same job count takes less virtual time on more CPUs.
func TestBuildFarmScalesWithCPUs(t *testing.T) {
	run := func(cpus int) *load.Metrics {
		t.Helper()
		m, err := load.Run(load.Config{
			Scenario: load.BuildFarm, Via: sim.Spawn,
			CPUs: cpus, Requests: 16, HeapBytes: 4 << 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		if m.Requests != 16 || m.Creations != 16 {
			t.Fatalf("requests=%d creations=%d, want 16/16", m.Requests, m.Creations)
		}
		return m
	}
	one := run(1)
	four := run(4)
	if four.VirtualNanos >= one.VirtualNanos {
		t.Errorf("4-CPU farm not faster: %dns vs %dns on 1 CPU", four.VirtualNanos, one.VirtualNanos)
	}
	for cpu, u := range four.CPUUtilization {
		if u < 0 || u > 1 {
			t.Errorf("cpu%d utilization %.2f outside [0,1]", cpu, u)
		}
	}
}
