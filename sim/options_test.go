package sim_test

import (
	"errors"
	"io"
	"testing"

	"repro/internal/errno"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/sim"
)

// TestWithSwapAddsCommitHeadroom: swap is commit headroom beyond RAM.
// In 64 MiB of strict-commit RAM, fork+exec from a 40 MiB dirty parent
// cannot reserve the child's copy and fails with ENOMEM; 64 MiB of
// swap makes the same reservation fit.
func TestWithSwapAddsCommitHeadroom(t *testing.T) {
	for _, swap := range []uint64{0, 64 << 20} {
		opts := []sim.Option{sim.WithRAM(64 << 20), sim.WithCommitPolicy(sim.CommitStrict), sim.WithUserland("true")}
		if swap > 0 {
			opts = append(opts, sim.WithSwap(swap))
		}
		sys := newSys(t, opts...)
		if err := sys.DirtyHost(40<<20, false); err != nil {
			t.Fatal(err)
		}
		err := sys.Command("true").Via(sim.ForkExec).Run()
		switch {
		case swap == 0 && !errors.Is(err, errno.ENOMEM):
			t.Errorf("no swap: fork+exec err = %v, want ENOMEM", err)
		case swap > 0 && err != nil:
			t.Errorf("WithSwap(%d): fork+exec failed: %v", swap, err)
		}
	}
}

// TestWithEagerForkCoversTheMachinesOwnForks: WithEagerFork makes the
// machine's own forks copy the dirty host, Kernel().Fork among them,
// while a command's creation follows its Strategy: Via(ForkExec) stays
// copy-on-write on either machine and Via(EagerForkExec) copies.
func TestWithEagerForkCoversTheMachinesOwnForks(t *testing.T) {
	const dirty = 4 << 20
	for _, eager := range []bool{false, true} {
		opts := []sim.Option{sim.WithUserland("true")}
		if eager {
			opts = append(opts, sim.WithEagerFork())
		}
		sys := newSys(t, opts...)
		if err := sys.DirtyHost(dirty, false); err != nil {
			t.Fatal(err)
		}
		k := sys.Kernel()
		copies := func(name string, create func() (*kernel.Process, error)) uint64 {
			before := k.Meter().PageCopies
			p, err := create()
			if err != nil {
				t.Fatalf("eager %v, %s: %v", eager, name, err)
			}
			k.DestroyProcess(p)
			return k.Meter().PageCopies - before
		}
		via := func(st sim.Strategy) func() (*kernel.Process, error) {
			return func() (*kernel.Process, error) {
				p, err := sys.Command("true").Via(st).Create()
				if err != nil {
					return nil, err
				}
				return p.Raw(), nil
			}
		}
		own := copies("Kernel().Fork", func() (*kernel.Process, error) { return k.Fork(sys.Host()) })
		if eager != (own >= dirty/mem.PageSize) {
			t.Errorf("eager %v: Kernel().Fork copied %d pages", eager, own)
		}
		if n := copies("Via(ForkExec)", via(sim.ForkExec)); n != 0 {
			t.Errorf("eager %v: Via(ForkExec) copied %d pages, want 0", eager, n)
		}
		if n := copies("Via(EagerForkExec)", via(sim.EagerForkExec)); n < dirty/mem.PageSize {
			t.Errorf("eager %v: Via(EagerForkExec) copied %d pages, want the %d dirty ones", eager, n, dirty/mem.PageSize)
		}
	}
}

// TestWithDenyMultithreadedForkAvoidsDeadlock: threads_deadlock forks
// while another thread holds a lock. By default the child inherits the
// held lock and deadlocks; with the §8 mitigation the fork is refused
// and the program exits cleanly instead.
func TestWithDenyMultithreadedForkAvoidsDeadlock(t *testing.T) {
	sys := newSys(t, sim.WithRunBudget(10_000_000))
	var dl *sim.DeadlockError
	if err := sys.Command("threads_deadlock").Run(); !errors.As(err, &dl) {
		t.Errorf("default: err = %v, want *DeadlockError", err)
	}
	sys = newSys(t, sim.WithRunBudget(10_000_000), sim.WithDenyMultithreadedFork())
	if err := sys.Command("threads_deadlock").Run(); err != nil {
		t.Errorf("WithDenyMultithreadedFork: err = %v, want a clean exit", err)
	}
}

// progBothStreams writes one line to stdout and one to stderr.
const progBothStreams = `
_start:
    movi r0, 1
    li r1, out_msg
    call fputs
    movi r0, 2
    li r1, err_msg
    call fputs
    movi r0, 0
    sys SYS_EXIT
.data
out_msg: .asciz "to stdout\n"
err_msg: .asciz "to stderr\n"
`

// TestCombinedOutput: CombinedOutput captures fd 1 and fd 2 in one
// buffer, in write order, and refuses a command whose Stderr is set.
func TestCombinedOutput(t *testing.T) {
	sys := newSys(t, sim.WithProgram("/bin/both", progBothStreams))
	out, err := sys.Command("/bin/both").CombinedOutput()
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "to stdout\nto stderr\n" {
		t.Errorf("combined output = %q", out)
	}
	stdout, err := sys.Command("/bin/both").Output()
	if err != nil || string(stdout) != "to stdout\n" {
		t.Errorf("Output = %q, %v; want stdout alone", stdout, err)
	}
	cmd := sys.Command("/bin/both")
	cmd.Stderr = io.Discard
	if _, err := cmd.CombinedOutput(); err == nil {
		t.Error("CombinedOutput with Stderr already set succeeded")
	}
}
