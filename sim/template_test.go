package sim_test

import (
	"bytes"
	"io"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/sim"
)

// TestCloneTraceMatchesCold is the trace half of the clone-equivalence
// property: the golden-trace machine is rebuilt, frozen into a
// template *before* the traced command, and the command is then run on
// two independent clones and on the post-snapshot original. All three
// rendered traces must be byte-identical to the cold machine's — a
// clone is logically the warmed machine itself, and the snapshot must
// not perturb the machine it was taken from (host-COW bookkeeping is
// invisible to virtual time).
func TestCloneTraceMatchesCold(t *testing.T) {
	for _, g := range goldenStrategies {
		g := g
		t.Run(g.name, func(t *testing.T) {
			cold := goldenTrace(t, g.via)

			sys, err := sim.NewSystem(
				sim.WithRAM(64<<20),
				sim.WithUserland("echo"),
				sim.WithTrace(),
			)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.DirtyHost(64<<10, false); err != nil {
				t.Fatal(err)
			}
			tpl, err := sys.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			run := func(s *sim.System) string {
				cmd := s.Command("echo", "trace", "me").Via(g.via)
				cmd.Stdout = io.Discard
				if err := cmd.Run(); err != nil {
					t.Fatal(err)
				}
				return s.Trace().Render()
			}
			for i := 0; i < 2; i++ {
				c, err := tpl.Clone()
				if err != nil {
					t.Fatal(err)
				}
				if got := run(c); got != cold {
					t.Errorf("clone %d trace diverged from cold machine:\nclone:\n%s\ncold:\n%s", i, got, cold)
				}
			}
			if got := run(sys); got != cold {
				t.Errorf("post-snapshot original's trace diverged from cold machine:\ngot:\n%s\ncold:\n%s", got, cold)
			}
		})
	}
}

// TestCloneIndependence stamps three clones from one template, drives
// divergent mutating workloads through them, and asserts that neither
// the template nor any sibling sees the others' writes: the frozen
// master's process table, physical-memory books, and host-COW-shared
// frames are unperturbed, a late fourth clone is still pristine, and
// each clone returns to its own post-stamp baseline once its processes
// are reaped (the leak half: stamping must not open a path for one
// machine's teardown to double-free or retain another's frames).
func TestCloneIndependence(t *testing.T) {
	sys, err := sim.NewSystem(sim.WithRAM(64<<20), sim.WithUserland("true"))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.DirtyHost(1<<20, false); err != nil {
		t.Fatal(err)
	}
	if err := sys.WriteFile("/tmp/seed", []byte("base")); err != nil {
		t.Fatal(err)
	}
	tpl, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	tk := tpl.Kernel()
	baseProcs := tk.ProcessCount()
	basePages := tk.Phys().AllocatedPages()
	baseCmt := tk.Phys().Committed()
	baseShared := tk.Phys().SharedFrames()

	var clones [3]*sim.System
	var cbase [3]counts
	for i := range clones {
		if clones[i], err = tpl.Clone(); err != nil {
			t.Fatal(err)
		}
		cbase[i] = snapshot(clones[i])
	}
	a, b, c := clones[0], clones[1], clones[2]

	// Divergent mutations: a and b rewrite the seeded file to
	// different contents and churn processes under different
	// strategies; c only reads.
	if err := a.WriteFile("/tmp/seed", []byte("AAAA")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := a.Command("true").Via(sim.ForkExec).Run(); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.WriteFile("/tmp/seed", []byte("BB")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := b.Command("true").Via(sim.Spawn).Run(); err != nil {
			t.Fatal(err)
		}
	}

	readSeed := func(s *sim.System, who string, want string) {
		t.Helper()
		got, err := s.ReadFile("/tmp/seed")
		if err != nil {
			t.Fatalf("%s: read seed: %v", who, err)
		}
		if !bytes.Equal(got, []byte(want)) {
			t.Errorf("%s sees seed %q, want %q", who, got, want)
		}
	}
	readSeed(a, "clone a", "AAAA")
	readSeed(b, "clone b", "BB")
	readSeed(c, "clone c", "base") // siblings' writes must not bleed

	// A clone stamped after the siblings diverged is still pristine.
	d, err := tpl.Clone()
	if err != nil {
		t.Fatal(err)
	}
	readSeed(d, "late clone d", "base")

	// The frozen master is untouched: same processes, same resident
	// pages, same commit charge, and no shared frame was ever broken
	// *on the template's side* (clones un-share their own copies; a
	// drop here would mean a clone's write reached the master).
	if got := tk.ProcessCount(); got != baseProcs {
		t.Errorf("template process count moved: %d, want %d", got, baseProcs)
	}
	if got := tk.Phys().AllocatedPages(); got != basePages {
		t.Errorf("template resident pages moved: %d, want %d", got, basePages)
	}
	if got := tk.Phys().Committed(); got != baseCmt {
		t.Errorf("template commit charge moved: %d, want %d", got, baseCmt)
	}
	if got := tk.Phys().SharedFrames(); got < baseShared {
		t.Errorf("template shared frames decreased: %d, was %d (a clone wrote through the COW)", got, baseShared)
	}

	// Leak half: with every child reaped, each clone is exactly back
	// at its own post-stamp baseline.
	for i, cl := range clones {
		if got := snapshot(cl); got != cbase[i] {
			t.Errorf("clone %d leaked: %+v, baseline %+v", i, got, cbase[i])
		}
	}
}

// futexWakeSrc is a two-thread program. The main thread waits in
// futex_wait on fw_word; a waker thread sleeps 1 ms, sets the word,
// wakes up to eight waiters and records how many woke, and the main
// thread exits with that count. A run therefore ends in exit code 1
// only if the main thread was still queued on the futex when the wake
// came. internal/kernel's TestCheckpointRestoreAcrossMachines runs the
// same program.
const futexWakeSrc = `
_start:
    li r0, fw_waker
    movi r1, 0
    li r2, fw_stack_top
    sys SYS_THREAD_CREATE
fw_wait:
    li r0, fw_word
    movi r1, 0
    sys SYS_FUTEX_WAIT
    li r3, fw_word
    ld8 r4, [r3+0]
    bz r4, fw_wait
    li r3, fw_woken
    ld8 r0, [r3+0]
    sys SYS_EXIT
fw_waker:
    li r0, 1000000
    sys SYS_NANOSLEEP
    li r3, fw_word
    movi r4, 1
    st8 [r3+0], r4
    li r0, fw_word
    movi r1, 8
    sys SYS_FUTEX_WAKE
    li r3, fw_woken
    st8 [r3+0], r0
    sys SYS_THREAD_EXIT
.bss
.align 8
fw_word: .space 8
fw_woken: .space 8
fw_stack: .space 4096
fw_stack_top: .space 8
`

// TestCloneBlockedFutexWaiter freezes a machine while one thread waits
// in futex_wait and the other sleeps before waking it. The clone must
// put its copy of the waiter on the one cloned queue that its futex
// table and the thread itself both name, so the waker's wake finds it:
// clone and post-snapshot source must each run to exit code 1 (one
// waiter woken) with the same trace and virtual time.
func TestCloneBlockedFutexWaiter(t *testing.T) {
	sys, err := sim.NewSystem(sim.WithUserland("true"),
		sim.WithProgram("/bin/futexwake", futexWakeSrc), sim.WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	cmd := sys.Command("/bin/futexwake")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Step until the main thread waits on the futex and the waker
	// sleeps; a whole Run would wake the sleeper.
	k, raw := sys.Kernel(), cmd.Process.Raw()
	for {
		blocked := 0
		for _, th := range raw.Threads() {
			if th.State() == kernel.TBlocked {
				blocked++
			}
		}
		if blocked == 2 && raw.LiveThreads() == 2 {
			break
		}
		if err := k.Run(kernel.RunLimits{MaxInstructions: 1}); err != nil || k.LastStop() != kernel.StopLimit {
			t.Fatalf("machine stopped (%v, err %v) before both threads blocked", k.LastStop(), err)
		}
	}
	tpl, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	clone, err := tpl.Clone()
	if err != nil {
		t.Fatal(err)
	}
	cp, err := clone.FindProcess(cmd.Process.Pid())
	if err != nil {
		t.Fatal(err)
	}

	finish := func(who string, s *sim.System, p *sim.Process) (int, string, time.Duration) {
		t.Helper()
		st, err := p.Wait()
		if err != nil {
			t.Fatalf("%s: %v", who, err)
		}
		return st.ExitCode(), s.Trace().Render(), s.VirtualTime()
	}
	srcCode, srcTrace, srcTime := finish("source", sys, cmd.Process)
	if srcCode != 1 {
		t.Fatalf("source exited %d, want 1 (one waiter woken)", srcCode)
	}
	code, trace, vt := finish("clone", clone, cp)
	if code != srcCode {
		t.Errorf("clone exited %d, source %d", code, srcCode)
	}
	if trace != srcTrace {
		t.Errorf("clone trace diverged from its source:\nclone:\n%s\nsource:\n%s", trace, srcTrace)
	}
	if vt != srcTime {
		t.Errorf("clone virtual time %v, source %v", vt, srcTime)
	}
}
