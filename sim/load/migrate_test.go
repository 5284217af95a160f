package load

import (
	"testing"

	"repro/sim"
	"repro/sim/fault"
)

// runMigrate executes one Migrate cell, failing the test on error.
func runMigrate(t *testing.T, cfg Config) *Metrics {
	t.Helper()
	cfg.Scenario = Migrate
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMigrateForkVsSpawn is E16's mechanism at unit scale: a
// fork-family migrant drags the parent's dirty heap through every
// pre-copy round and into the stop-and-copy residue, a spawned one
// carries only its own image.
func TestMigrateForkVsSpawn(t *testing.T) {
	const reqs = 2
	fork := runMigrate(t, Config{Via: sim.ForkExec, Requests: reqs, HeapBytes: 8 << 20})
	spawn := runMigrate(t, Config{Via: sim.Spawn, Requests: reqs, HeapBytes: 8 << 20})

	for _, m := range []*Metrics{fork, spawn} {
		if m.Requests != reqs {
			t.Fatalf("%s: %d migrations completed, want %d", m.Strategy, m.Requests, reqs)
		}
		if m.MigrateRefused != 0 {
			t.Errorf("%s: %d refusals, want 0", m.Strategy, m.MigrateRefused)
		}
		if m.MigrateDowntimeNanos == 0 {
			t.Errorf("%s: zero downtime; stop-and-copy cannot be free", m.Strategy)
		}
		if m.NetPacketsSent == 0 || m.NetBytesSent == 0 {
			t.Errorf("%s: page stream never touched the wire", m.Strategy)
		}
	}
	// The fork migrant inherits the 8 MiB heap: it re-ships dirty
	// pages every round (Workers=3 ⇒ 3 rounds per migration), while
	// the spawned migrant converges after round 0.
	if want := uint64(3 * reqs); fork.MigrateRounds != want {
		t.Errorf("fork rounds = %d, want %d", fork.MigrateRounds, want)
	}
	if want := uint64(1 * reqs); spawn.MigrateRounds != want {
		t.Errorf("spawn rounds = %d, want %d (converged after the full round)", spawn.MigrateRounds, want)
	}
	if fork.MigratePagesSent < 4*spawn.MigratePagesSent {
		t.Errorf("fork shipped %d pages, spawn %d; the inherited heap should dominate",
			fork.MigratePagesSent, spawn.MigratePagesSent)
	}
	if fork.MigrateDowntimeNanos < 4*spawn.MigrateDowntimeNanos {
		t.Errorf("fork downtime = %dns, spawn = %dns; want the Θ(dirty heap) gap",
			fork.MigrateDowntimeNanos, spawn.MigrateDowntimeNanos)
	}
}

// TestMigrateDowntimeScalesWithHeap: doubling the parent heap doubles
// (to first order) a fork migrant's residue and downtime, and leaves a
// spawned migrant's downtime bit-identical — the process never
// inherited the heap, so its migration cannot see it.
func TestMigrateDowntimeScalesWithHeap(t *testing.T) {
	run := func(via sim.Strategy, heap uint64) *Metrics {
		return runMigrate(t, Config{Via: via, Requests: 1, HeapBytes: heap})
	}
	forkSmall, forkBig := run(sim.ForkExec, 4<<20), run(sim.ForkExec, 16<<20)
	if forkBig.MigrateDowntimeNanos <= forkSmall.MigrateDowntimeNanos {
		t.Errorf("fork downtime did not grow with heap: %dns @4MiB vs %dns @16MiB",
			forkSmall.MigrateDowntimeNanos, forkBig.MigrateDowntimeNanos)
	}
	if forkBig.MigratePagesSent <= forkSmall.MigratePagesSent {
		t.Errorf("fork pages shipped did not grow with heap: %d vs %d",
			forkSmall.MigratePagesSent, forkBig.MigratePagesSent)
	}
	spawnSmall, spawnBig := run(sim.Spawn, 4<<20), run(sim.Spawn, 16<<20)
	if spawnSmall.MigrateDowntimeNanos != spawnBig.MigrateDowntimeNanos {
		t.Errorf("spawn downtime moved with a heap it never inherited: %dns @4MiB vs %dns @16MiB",
			spawnSmall.MigrateDowntimeNanos, spawnBig.MigrateDowntimeNanos)
	}
	if spawnSmall.MigratePagesSent != spawnBig.MigratePagesSent {
		t.Errorf("spawn pages shipped moved with the parent heap: %d vs %d",
			spawnSmall.MigratePagesSent, spawnBig.MigratePagesSent)
	}
}

// TestMigrateAllStrategies: every creation strategy either migrates or
// refuses cleanly, and the fork family ships strictly more state than
// the self-contained strategies. With HugePages the fork family's
// round-0 images carry the inherited heap as 2 MiB records, which
// restore must accept in capture order.
func TestMigrateAllStrategies(t *testing.T) {
	forkFamily := map[sim.Strategy]bool{
		sim.ForkExec: true, sim.EmulatedFork: true, sim.EagerForkExec: true,
	}
	for _, huge := range []bool{false, true} {
		spawnPages := uint64(0)
		for _, via := range []sim.Strategy{
			sim.Spawn, sim.ForkExec, sim.VforkExec, sim.Builder,
			sim.EmulatedFork, sim.EagerForkExec,
		} {
			m := runMigrate(t, Config{Via: via, Requests: 1, HeapBytes: 4 << 20, HugePages: huge})
			if via == sim.VforkExec {
				if m.Requests != 0 || m.MigrateRefused != 1 {
					t.Errorf("vfork huge=%v: %d migrated / %d refused, want 0/1", huge, m.Requests, m.MigrateRefused)
				}
				if m.MigrateDowntimeNanos != 0 || m.NetPacketsSent != 0 {
					t.Errorf("vfork huge=%v refusal still paid downtime %dns and %d packets",
						huge, m.MigrateDowntimeNanos, m.NetPacketsSent)
				}
				continue
			}
			if m.Requests != 1 || m.MigrateRefused != 0 {
				t.Errorf("%v huge=%v: %d migrated / %d refused, want 1/0", via, huge, m.Requests, m.MigrateRefused)
			}
			if via == sim.Spawn {
				spawnPages = m.MigratePagesSent
			}
			if forkFamily[via] && m.MigratePagesSent <= spawnPages {
				t.Errorf("%v huge=%v shipped %d pages, not more than spawn's %d", via, huge, m.MigratePagesSent, spawnPages)
			}
		}
	}
}

// TestMigrateEmulatedForkCopiesHeap: an emufork migrant comes from
// core.EmulateFork, which copies the server's heap page by page through
// cross-process reads and writes, so its cell must take longer than
// fork's, whose migrant shares the heap copy-on-write. A cell that
// forked the migrant in the kernel would report fork's figures under
// emufork's name.
func TestMigrateEmulatedForkCopiesHeap(t *testing.T) {
	fork := runMigrate(t, Config{Via: sim.ForkExec, Requests: 1, HeapBytes: 4 << 20})
	emu := runMigrate(t, Config{Via: sim.EmulatedFork, Requests: 1, HeapBytes: 4 << 20})
	if emu.VirtualNanos <= fork.VirtualNanos {
		t.Errorf("emufork cell took %dns, fork %dns; copying the heap cannot be cheaper than sharing it",
			emu.VirtualNanos, fork.VirtualNanos)
	}
}

// TestMigrateChaosRetransmits: wire chaos eats page-stream chunks; the
// driver re-sends them in waves and every migration still completes.
func TestMigrateChaosRetransmits(t *testing.T) {
	clean := runMigrate(t, Config{Via: sim.ForkExec, Requests: 2, HeapBytes: 8 << 20})
	chaos := runMigrate(t, Config{Via: sim.ForkExec, Requests: 2, HeapBytes: 8 << 20,
		Faults: fault.NetChaos(7, 0)})
	if chaos.NetDrops == 0 {
		t.Fatal("chaos schedule dropped nothing")
	}
	if chaos.Requests != 2 {
		t.Errorf("%d migrations completed under chaos, want 2", chaos.Requests)
	}
	if chaos.NetPacketsSent <= clean.NetPacketsSent {
		t.Errorf("chaos sent %d packets, clean %d; retransmissions missing",
			chaos.NetPacketsSent, clean.NetPacketsSent)
	}
	// Retransmission waves cost wall-clock on the cell timeline (lost
	// pre-copy chunks stall the round, not the outage — downtime only
	// grows when "final" chunks are eaten).
	if chaos.VirtualNanos <= clean.VirtualNanos {
		t.Errorf("chaos elapsed %dns not above clean %dns; retransmission waves must cost time",
			chaos.VirtualNanos, clean.VirtualNanos)
	}
	if chaos.MigrateDowntimeNanos < clean.MigrateDowntimeNanos {
		t.Errorf("chaos downtime %dns below clean %dns", chaos.MigrateDowntimeNanos, clean.MigrateDowntimeNanos)
	}
}
