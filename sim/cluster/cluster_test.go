package cluster_test

import (
	"strings"
	"testing"

	"repro/sim"
	"repro/sim/cluster"
)

// offered sums a spec's arrival plan (per pool, unshared).
func offered(spec cluster.Spec) uint64 {
	var n uint64
	for _, ph := range spec.Traffic {
		n += uint64(ph.Steps) * uint64(ph.PerStep)
	}
	return n
}

// TestSurgeScalesBothPoolsForkSlower is the tentpole experiment at
// unit-test scale: the spike forces both pools to scale out, nothing
// is lost, and the fork pool's measured scale-out latency is above the
// spawn pool's (Θ(heap) worker warm-up vs flat).
func TestSurgeScalesBothPoolsForkSlower(t *testing.T) {
	spec := cluster.SurgeSpec(4 << 20)
	rep, err := cluster.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := offered(spec)
	byName := map[string]cluster.PoolReport{}
	for _, p := range rep.Pools {
		byName[p.Pool] = p
		if p.Served != want || p.Failed != 0 {
			t.Errorf("pool %s served %d failed %d, want %d/0", p.Pool, p.Served, p.Failed, want)
		}
		if len(p.ScaleOuts) == 0 {
			t.Errorf("pool %s never scaled out under the spike", p.Pool)
		}
		if p.ScaleDowns == 0 {
			t.Errorf("pool %s never scaled back down in the idle tail", p.Pool)
		}
		if p.FinalMachines != spec.Pools[0].MinMachines {
			t.Errorf("pool %s ended with %d machines, want the floor %d",
				p.Pool, p.FinalMachines, spec.Pools[0].MinMachines)
		}
	}
	fork, spawn := byName["fork"], byName["spawn"]
	if fork.MeanScaleOutNanos <= spawn.MeanScaleOutNanos {
		t.Errorf("fork scale-out %dns not above spawn %dns", fork.MeanScaleOutNanos, spawn.MeanScaleOutNanos)
	}
	if fork.WarmupPTECopies <= spawn.WarmupPTECopies {
		t.Errorf("fork warm-up PTE copies %d not above spawn %d", fork.WarmupPTECopies, spawn.WarmupPTECopies)
	}
	if fork.SLORate > spawn.SLORate {
		t.Errorf("fork SLO rate %.3f above spawn %.3f", fork.SLORate, spawn.SLORate)
	}
}

// TestZoneOutageCordonAndBackfill: the outage kills the zone-0
// machine, its requests retry (none lost), the pool backfills to its
// floor, and every machine booted while the zone was cordoned lands
// elsewhere.
func TestZoneOutageCordonAndBackfill(t *testing.T) {
	spec := cluster.ZoneOutageSpec(4 << 20)
	rep, err := cluster.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	p := rep.Pools[0]
	if p.MachinesKilled == 0 {
		t.Fatal("outage killed nothing")
	}
	if p.Failed != 0 || p.Served != offered(spec) {
		t.Errorf("served %d failed %d, want %d/0 (kills requeue, not lose)", p.Served, p.Failed, offered(spec))
	}
	if len(p.ScaleOuts) == 0 {
		t.Fatal("no backfill scale-out after the outage")
	}
	// Outage window is steps 10..20; cordon extends it. Nothing may
	// be placed into zone 0 while it is being killed.
	for _, so := range p.ScaleOuts {
		if so.DecisionStep >= 10 && so.DecisionStep < 20 && so.Zone == 0 {
			t.Errorf("machine %d placed into the dying zone at step %d", so.Machine, so.DecisionStep)
		}
	}
	killTrace := false
	for _, line := range rep.Trace {
		if strings.Contains(line, "kill machine") {
			killTrace = true
		}
	}
	if !killTrace {
		t.Error("reconcile trace has no kill event")
	}
}

// TestNetSplitRoutesAroundZone: a partitioned zone's machines stay
// alive but take no traffic — the balancer routes around them, every
// request is still served, and the trace records the partition.
func TestNetSplitRoutesAroundZone(t *testing.T) {
	spec := cluster.NetSplitSpec(4 << 20)
	rep, err := cluster.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	p := rep.Pools[0]
	if p.MachinesKilled != 0 {
		t.Errorf("partition killed %d machines; a split severs links, not machines", p.MachinesKilled)
	}
	if p.Failed != 0 || p.Served != offered(spec) {
		t.Errorf("served %d failed %d, want %d/0 (unreachable is not lost)", p.Served, p.Failed, offered(spec))
	}
	partitionTrace := false
	for _, line := range rep.Trace {
		if strings.Contains(line, "unreachable (network partition)") {
			partitionTrace = true
		}
	}
	if !partitionTrace {
		t.Error("reconcile trace has no partition event")
	}
}

// TestHeteroPoolsWeightedRouting: with one shared stream over the
// 1/2/4/8-CPU ladder, the CPU-weighted balancer gives a big machine
// more traffic than a small one (per-machine — small pools may grow
// extra machines instead), and the stream is served exactly once, not
// once per pool.
func TestHeteroPoolsWeightedRouting(t *testing.T) {
	spec := cluster.HeteroPoolsSpec(4 << 20)
	rep, err := cluster.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	perMachine := map[string]uint64{}
	for _, p := range rep.Pools {
		total += p.Served + p.Failed
		perMachine[p.Pool] = p.Served / uint64(p.PeakMachines)
	}
	if want := offered(spec); total != want {
		t.Errorf("cluster served %d requests, want the shared stream's %d", total, want)
	}
	if perMachine["cpu8"] <= perMachine["cpu1"] {
		t.Errorf("cpu8 served %d per machine, cpu1 %d: balancer is not shape-weighted",
			perMachine["cpu8"], perMachine["cpu1"])
	}
}

// TestScaleDownLeakInvariant: under every strategy, a machine retired
// by scale-down (and the final drain) returns its process, frame, and
// commit counts exactly to the post-warm-up baseline — the cluster
// cannot leak what its machines created. Each retire's Drain checks
// the books and fails the run on a leak, and every booted machine is
// retired one way or the other.
func TestScaleDownLeakInvariant(t *testing.T) {
	for _, via := range []sim.Strategy{
		sim.Spawn, sim.ForkExec, sim.VforkExec, sim.Builder, sim.EmulatedFork, sim.EagerForkExec,
	} {
		t.Run(via.String(), func(t *testing.T) {
			rep, err := cluster.Run(cluster.Spec{
				Pools: []cluster.PoolSpec{{
					Name: "p", Via: via, CPUs: 1, HeapBytes: 2 << 20,
					Workers: 2, MinMachines: 1, MaxMachines: 3,
				}},
				RequestWorkMiB: 1,
				Traffic:        []cluster.Phase{{Steps: 4, PerStep: 6}, {Steps: 30, PerStep: 0}},
			})
			if err != nil {
				t.Fatal(err)
			}
			p := rep.Pools[0]
			if len(p.ScaleOuts) == 0 || p.ScaleDowns == 0 {
				t.Fatalf("no scale cycle to check: %d out, %d down", len(p.ScaleOuts), p.ScaleDowns)
			}
			if p.MachinesBooted != p.ScaleDowns+p.FinalMachines {
				t.Errorf("%d machines booted, %d scaled down + %d retired at the end",
					p.MachinesBooted, p.ScaleDowns, p.FinalMachines)
			}
		})
	}
}

// TestPoolHeapIsMapped: a pool reports the heap its machines mapped,
// not the one requested: a 5000-byte heap maps two pages, in the JSON
// and in the rendered table.
func TestPoolHeapIsMapped(t *testing.T) {
	rep, err := cluster.Run(cluster.Spec{
		Pools:   []cluster.PoolSpec{{Name: "p", Via: sim.Spawn, CPUs: 1, HeapBytes: 5000, Workers: 2}},
		Traffic: []cluster.Phase{{Steps: 4, PerStep: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Pools[0].HeapBytes; got != 2*4096 {
		t.Errorf("pool heap %d bytes, want the two pages its machines map", got)
	}
	if out := rep.Render(); !strings.Contains(out, " 8KiB ") {
		t.Errorf("render does not name the 8KiB heap:\n%s", out)
	}
}

// TestUnderProvisionedClusterErrors: a fleet that can never drain its
// backlog hits MaxSteps and reports it instead of spinning forever.
func TestUnderProvisionedClusterErrors(t *testing.T) {
	_, err := cluster.Run(cluster.Spec{
		Pools: []cluster.PoolSpec{{
			Name: "tiny", Via: sim.ForkExec, CPUs: 1, HeapBytes: 2 << 20,
			MinMachines: 1, MaxMachines: 1,
		}},
		ReconcileEveryNanos: 1_000_000,
		Traffic:             []cluster.Phase{{Steps: 4, PerStep: 400}},
		MaxSteps:            40,
	})
	if err == nil || !strings.Contains(err.Error(), "not drained") {
		t.Fatalf("under-provisioned run = %v, want backlog-not-drained error", err)
	}
}

// TestRenderAndScenarioParsing smoke-covers the CLI surfaces.
func TestRenderAndScenarioParsing(t *testing.T) {
	for _, s := range cluster.Scenarios() {
		got, err := cluster.ParseScenario(string(s))
		if err != nil || got != s {
			t.Errorf("ParseScenario(%q) = %v, %v", s, got, err)
		}
		if _, err := cluster.SpecFor(s, 2<<20); err != nil {
			t.Errorf("SpecFor(%q): %v", s, err)
		}
	}
	const want = `cluster: unknown scenario "nope" (surge|zoneoutage|heteropools|netsplit)`
	if _, err := cluster.ParseScenario("nope"); err == nil || err.Error() != want {
		t.Errorf("unknown scenario: %v, want %s", err, want)
	}
	rep, err := cluster.Run(cluster.Spec{
		Pools:   []cluster.PoolSpec{{Name: "p", Via: sim.Spawn, CPUs: 1, HeapBytes: 2 << 20, Workers: 2}},
		Traffic: []cluster.Phase{{Steps: 4, PerStep: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := rep.Render()
	for _, want := range []string{"cluster:", "pool", "posix_spawn", "reconcile trace"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if _, err := rep.JSON(); err != nil {
		t.Fatal(err)
	}
}
