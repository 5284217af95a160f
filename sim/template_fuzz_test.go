package sim_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/sim"
	"repro/sim/fault"
)

// templateEpisode is FuzzTemplateClone's body: boot a machine, run a
// fuzzer-chosen number of warm-up requests, Snapshot mid-workload,
// stamp a fuzzer-chosen number of clones, arm a different random fault
// schedule on each clone *after* stamping, and drive requests through
// all of them, logging every outcome. It enforces the template
// invariants as it goes — no clone's faults or writes perturb the
// frozen master, every clone returns to its post-stamp baseline once
// its schedule is disarmed and its children reaped, and two pristine
// clones produce identical metrics — and returns a transcript that
// must replay byte-for-byte for the same inputs.
func templateEpisode(via sim.Strategy, warmups, nClones int, seed, perMille uint64) (string, error) {
	sys, err := sim.NewSystem(sim.WithRAM(64<<20), sim.WithUserland("true"))
	if err != nil {
		return "", err
	}
	if err := sys.DirtyHost(256<<10, false); err != nil {
		return "", err
	}
	// Clean warm-up, then freeze mid-workload: the snapshot point is
	// fuzzer-chosen, not a quiesced machine.
	for i := 0; i < warmups; i++ {
		if err := sys.Command("true").Via(via).Run(); err != nil {
			return "", fmt.Errorf("warmup %d: %w", i, err)
		}
	}
	tpl, err := sys.Snapshot()
	if err != nil {
		return "", err
	}
	tk := tpl.Kernel()
	baseProcs := tk.ProcessCount()
	basePages := tk.Phys().AllocatedPages()

	var out strings.Builder
	for ci := 0; ci < nClones; ci++ {
		clone, err := tpl.Clone()
		if err != nil {
			return "", fmt.Errorf("clone %d: %w", ci, err)
		}
		base := snapshot(clone)
		// Post-clone fault schedule, different per clone.
		clone.SetFaultSchedule(fault.Random(seed+uint64(ci), ci, perMille, fault.ENOMEM))
		for i := 0; i < 4; i++ {
			err := clone.Command("true").Via(via).Run()
			fmt.Fprintf(&out, "clone%d req%d err=%v\n", ci, i, err)
		}
		clone.SetFaultSchedule(fault.Observe())
		if got := snapshot(clone); got != base {
			return "", fmt.Errorf("clone %d leaked under faults: %+v, baseline %+v\ntranscript:\n%s",
				ci, got, base, out.String())
		}
		fmt.Fprintf(&out, "clone%d injected=%d\n", ci, clone.Faults().Injected())
	}

	// No clone's faults or writes may have reached the frozen master.
	if got := tk.ProcessCount(); got != baseProcs {
		return "", fmt.Errorf("template process count moved: %d, want %d", got, baseProcs)
	}
	if got := tk.Phys().AllocatedPages(); got != basePages {
		return "", fmt.Errorf("template resident pages moved: %d, want %d", got, basePages)
	}

	// Cross-clone bleed check: two pristine clones stamped after all
	// the faulty ones must behave identically to each other.
	var stats [2]string
	for i := range stats {
		c, err := tpl.Clone()
		if err != nil {
			return "", err
		}
		if err := c.Command("true").Via(via).Run(); err != nil {
			return "", fmt.Errorf("pristine clone %d: %w", i, err)
		}
		stats[i] = fmt.Sprintf("%+v", c.Stats())
	}
	if stats[0] != stats[1] {
		return "", fmt.Errorf("pristine clones diverged (cross-clone bleed):\nfirst:  %s\nsecond: %s",
			stats[0], stats[1])
	}
	out.WriteString(stats[0] + "\n")
	return out.String(), nil
}

// FuzzTemplateClone throws random snapshot points, clone counts, and
// post-clone fault schedules at the template machinery: whatever the
// fuzzer invents, Snapshot/Clone must not panic, must not let one
// clone's state bleed into a sibling or the frozen master, must not
// leak on fault-torn requests, and must replay deterministically —
// the failing tuple is its own reproducer. Runs in CI fuzz-smoke.
func FuzzTemplateClone(f *testing.F) {
	f.Add(uint8(2), uint8(1), uint8(2), uint64(1), uint64(100))
	f.Add(uint8(0), uint8(0), uint8(3), uint64(42), uint64(500))
	f.Add(uint8(4), uint8(3), uint8(1), uint64(7), uint64(0))
	f.Add(uint8(1), uint8(2), uint8(2), uint64(0xdeadbeef), uint64(950))
	f.Fuzz(func(t *testing.T, viaIdx, warmups, nClones uint8, seed, perMille uint64) {
		all := allStrategies()
		via := all[int(viaIdx)%len(all)]
		w := int(warmups) % 4
		n := 1 + int(nClones)%3
		perMille %= 1001
		first, err := templateEpisode(via, w, n, seed, perMille)
		if err != nil {
			t.Fatal(err)
		}
		second, err := templateEpisode(via, w, n, seed, perMille)
		if err != nil {
			t.Fatalf("replay failed where first run passed: %v", err)
		}
		if first != second {
			t.Fatalf("episode (via=%v warmups=%d clones=%d seed=%d rate=%d‰) did not replay deterministically:\nfirst:\n%s\nsecond:\n%s",
				via, w, n, seed, perMille, first, second)
		}
	})
}
