package sim_test

import (
	"io"
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/sim"
)

// TestWithCommitPolicy: the three policies keep their names, and
// NewSystem refuses a value outside them with an error naming it.
func TestWithCommitPolicy(t *testing.T) {
	for _, c := range []struct {
		policy  sim.CommitPolicy
		name    string
		refused bool
	}{
		{sim.CommitHeuristic, "heuristic", false},
		{sim.CommitStrict, "strict", false},
		{sim.CommitAlways, "always", false},
		{7, "CommitPolicy(7)", true},
		{-1, "CommitPolicy(-1)", true},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := c.policy.String(); got != c.name {
				t.Errorf("String() = %q, want %q", got, c.name)
			}
			_, err := sim.NewSystem(sim.WithCommitPolicy(c.policy), sim.WithUserland("true"))
			switch {
			case !c.refused && err != nil:
				t.Errorf("NewSystem: %v", err)
			case c.refused && (err == nil || !strings.Contains(err.Error(), c.name)):
				t.Errorf("NewSystem = %v, want an error naming %s", err, c.name)
			}
		})
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
