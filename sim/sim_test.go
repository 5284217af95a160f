package sim_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/sim"
)

func newSys(t *testing.T, opts ...sim.Option) *sim.System {
	t.Helper()
	sys, err := sim.NewSystem(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// --- golden exit codes -------------------------------------------

func TestExitCodeZero(t *testing.T) {
	sys := newSys(t)
	cmd := sys.Command("true")
	if err := cmd.Run(); err != nil {
		t.Fatalf("true: %v", err)
	}
	if ps := cmd.ProcessState; !ps.Success() || ps.ExitCode() != 0 || ps.Signaled() {
		t.Errorf("state = %v", ps)
	}
}

func TestExitCodeNonZero(t *testing.T) {
	sys := newSys(t)
	err := sys.Command("false").Run()
	ee := sim.AsExitError(err)
	if ee == nil {
		t.Fatalf("want *ExitError, got %v", err)
	}
	if ee.ExitCode() != 1 || ee.Signaled() {
		t.Errorf("state = %v", ee.ProcessState)
	}
}

// --- signal deaths ------------------------------------------------

func TestSignalDeath(t *testing.T) {
	sys := newSys(t)
	err := sys.Command("segv").Run()
	ee := sim.AsExitError(err)
	if ee == nil {
		t.Fatalf("want *ExitError, got %v", err)
	}
	if !ee.Signaled() || ee.Signal() != sim.SIGSEGV {
		t.Errorf("signal = %v, want SIGSEGV", ee.Signal())
	}
	if ee.ExitCode() != -1 {
		t.Errorf("ExitCode = %d, want -1 for signal death", ee.ExitCode())
	}
	if !strings.Contains(ee.Error(), "SIGSEGV") {
		t.Errorf("error text %q does not name the signal", ee.Error())
	}
}

// TestWildPointers: a user address above the 48-bit space is a fault
// like any unmapped one. A load or an indirect call through it dies of
// SIGSEGV, and a write(2) from it gets EFAULT; none reaches the page
// table, which only accepts addresses inside the space.
func TestWildPointers(t *testing.T) {
	const wild = "li r1, 0x1000000000000000\n"
	for _, tc := range []struct {
		name, src string
	}{
		{"load", wild + "    ld8 r0, [r1+0]\n"},
		{"callr", wild + "    callr r1\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := newSys(t)
			src := "_start:\n    " + tc.src + "    movi r0, 0\n    sys SYS_EXIT\n"
			if err := sys.InstallProgram("/bin/wild", src); err != nil {
				t.Fatal(err)
			}
			ee := sim.AsExitError(sys.Command("/bin/wild").Run())
			if ee == nil || !ee.Signaled() || ee.Signal() != sim.SIGSEGV {
				t.Fatalf("want death by SIGSEGV, got %v", ee)
			}
		})
	}
	t.Run("write", func(t *testing.T) {
		sys := newSys(t)
		// Exit with write's negated return value: the errno.
		src := `_start:
    ` + wild + `    movi r0, STDOUT
    movi r2, 8
    sys SYS_WRITE
    movi r3, 0
    sub r0, r3, r0
    sys SYS_EXIT
`
		if err := sys.InstallProgram("/bin/wild", src); err != nil {
			t.Fatal(err)
		}
		ee := sim.AsExitError(sys.Command("/bin/wild").Run())
		if ee == nil || ee.Signaled() || ee.ExitCode() != 14 { // EFAULT
			t.Fatalf("want a normal exit with EFAULT (14), got %v", ee)
		}
	})
}

// --- stdio plumbing ----------------------------------------------

func TestOutput(t *testing.T) {
	sys := newSys(t)
	out, err := sys.Command("echo", "hello", "road").Output()
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "hello road\n" {
		t.Errorf("out = %q", out)
	}
}

func TestStdinFromHostReader(t *testing.T) {
	sys := newSys(t)
	cmd := sys.Command("cat")
	cmd.Stdin = strings.NewReader("fed from the host\n")
	out, err := cmd.Output()
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "fed from the host\n" {
		t.Errorf("out = %q", out)
	}
}

func TestStderrSharesStdout(t *testing.T) {
	sys := newSys(t)
	var buf bytes.Buffer
	cmd := sys.Command("echo", "both")
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	if err := cmd.Run(); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "both\n" {
		t.Errorf("out = %q", buf.String())
	}
}

// TestPipeBetweenCommands wires echo | cat through a simulated pipe —
// the §6.1 shell pattern on the public API.
func TestPipeBetweenCommands(t *testing.T) {
	sys := newSys(t)
	r, w := sys.Pipe()

	left := sys.Command("echo", "through", "the", "pipe")
	left.Stdout = w
	right := sys.Command("cat")
	right.Stdin = r

	var out bytes.Buffer
	right.Stdout = &out

	if err := left.Start(); err != nil {
		t.Fatal(err)
	}
	if err := right.Start(); err != nil {
		t.Fatal(err)
	}
	// Drop the host's ends so the reader can see EOF.
	w.Close()
	r.Close()
	if err := left.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := right.Wait(); err != nil {
		t.Fatal(err)
	}
	if out.String() != "through the pipe\n" {
		t.Errorf("out = %q", out.String())
	}
}

// progFD3 writes a marker to fd 3 — only inheritable via ExtraFiles.
const progFD3 = `
_start:
    movi r0, 3
    li r1, fd3_msg
    call fputs
    movi r0, 0
    sys SYS_EXIT
.data
fd3_msg: .asciz "via fd3"
`

func TestExtraFilesInheritance(t *testing.T) {
	sys := newSys(t, sim.WithProgram("/bin/fd3", progFD3))
	r, w := sys.Pipe()
	cmd := sys.Command("/bin/fd3")
	cmd.ExtraFiles = []*sim.File{w}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if err := cmd.Wait(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, err := r.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != "via fd3" {
		t.Errorf("fd3 payload = %q", buf[:n])
	}
}

// progRelOpen opens the file "note" relative to the working directory
// and copies it to stdout — exercises Cmd.Dir end to end.
const progRelOpen = `
_start:
    li r0, ro_name
    movi r1, 0
    sys SYS_OPEN
    movi r3, 0
    blt r0, r3, ro_fail      ; negative return = errno
    mov r10, r0              ; fd
    addi sp, sp, -64
    mov r1, sp
    mov r0, r10
    movi r2, 64
    sys SYS_READ
    mov r2, r0               ; bytes read
    mov r1, sp
    movi r0, 1
    sys SYS_WRITE
    movi r0, 0
    sys SYS_EXIT
ro_fail:
    movi r0, 1
    sys SYS_EXIT
.data
ro_name: .asciz "note"
`

func TestDirSetsWorkingDirectory(t *testing.T) {
	sys := newSys(t, sim.WithProgram("/bin/relopen", progRelOpen))
	if err := sys.WriteFile("/tmp/note", []byte("found in /tmp")); err != nil {
		t.Fatal(err)
	}
	cmd := sys.Command("/bin/relopen")
	cmd.Dir = "/tmp"
	out, err := cmd.Output()
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "found in /tmp" {
		t.Errorf("out = %q", out)
	}
}

// --- the tentpole guarantee: one workload, five creation APIs ----

// TestAllStrategiesIdenticalOutput runs the same program through every
// process-creation strategy the paper compares and asserts the
// observable output is identical — the acceptance bar for Via.
func TestAllStrategiesIdenticalOutput(t *testing.T) {
	const want = "a fork in the road\n"
	sys := newSys(t)
	got := map[sim.Strategy]string{}
	for _, st := range sim.Strategies() {
		var buf bytes.Buffer
		cmd := sys.Command("echo", "a", "fork", "in", "the", "road").Via(st)
		cmd.Stdout = &buf
		if err := cmd.Run(); err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		got[st] = buf.String()
	}
	for st, out := range got {
		if out != want {
			t.Errorf("%v produced %q, want %q", st, out, want)
		}
	}
}

// TestStrategiesReportCreationCost checks the measurement path: a
// dirty 16 MiB host makes fork-family creation strictly dearer than
// spawn, which Figure 1 is built on, and backing the host with 2 MiB
// pages makes fork+exec cheaper than over 4 KiB pages, which E4 is.
func TestStrategiesReportCreationCost(t *testing.T) {
	forkExec := map[bool]int64{}
	for _, huge := range []bool{false, true} {
		sys := newSys(t, sim.WithUserland("true"))
		if err := sys.DirtyHost(16<<20, huge); err != nil {
			t.Fatal(err)
		}
		costs := map[sim.Strategy]int64{}
		for _, st := range sim.Strategies() {
			p, err := sys.Command("true").Via(st).Create()
			if err != nil {
				t.Fatalf("%v (huge %v): %v", st, huge, err)
			}
			if p.CreationCost() <= 0 {
				t.Errorf("%v (huge %v): creation cost %v, want > 0", st, huge, p.CreationCost())
			}
			costs[st] = int64(p.CreationCost())
			p.Destroy()
		}
		if costs[sim.Spawn] >= costs[sim.EmulatedFork] {
			t.Errorf("spawn (%d) should be far cheaper than emulated fork (%d) for a 16MiB parent (huge %v)",
				costs[sim.Spawn], costs[sim.EmulatedFork], huge)
		}
		forkExec[huge] = costs[sim.ForkExec]
	}
	if forkExec[true] >= forkExec[false] {
		t.Errorf("fork+exec over 2MiB pages (%d) should be cheaper than over 4KiB pages (%d)", forkExec[true], forkExec[false])
	}
}

// TestParseStrategyRoundTrips: every strategy parses back from its
// command-line name, and an unknown name is refused with the list of
// the six.
func TestParseStrategyRoundTrips(t *testing.T) {
	var names []string
	for st := sim.Strategy(0); st.Valid(); st++ {
		got, err := sim.ParseStrategy(st.Name())
		if err != nil || got != st {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", st.Name(), got, err, st)
		}
		names = append(names, st.Name())
	}
	if want := "spawn|fork|vfork|builder|emufork|eager"; sim.StrategyNames() != want || strings.Join(names, "|") != want {
		t.Errorf("StrategyNames() = %q, names %q; want %q", sim.StrategyNames(), names, want)
	}
	if _, err := sim.ParseStrategy("clone"); err == nil || !strings.Contains(err.Error(), sim.StrategyNames()) {
		t.Errorf("ParseStrategy(clone) = %v, want an error listing %s", err, sim.StrategyNames())
	}
}

// TestUnknownStrategyFails: a command created through a strategy
// outside the six fails and leaves nothing behind, where it used to
// run as posix_spawn.
func TestUnknownStrategyFails(t *testing.T) {
	sys := newSys(t)
	procs := sys.Kernel().ProcessCount()
	for _, st := range []sim.Strategy{7, -1} {
		out, err := sys.Command("echo", "hi").Via(st).Output()
		if err == nil || len(out) != 0 {
			t.Errorf("Via(%d): output %q, err %v; want an error and no output", int(st), out, err)
		}
	}
	if n := sys.Kernel().ProcessCount(); n != procs {
		t.Errorf("%d processes after the refusals, want %d", n, procs)
	}
}

// --- process lifecycle -------------------------------------------

func TestCreateParksUntilStart(t *testing.T) {
	sys := newSys(t)
	var buf bytes.Buffer
	cmd := sys.Command("echo", "parked")
	cmd.Stdout = &buf
	p, err := cmd.Create()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "parked\n" {
		t.Errorf("out = %q", buf.String())
	}
}

func TestWaitTwiceReturnsCachedState(t *testing.T) {
	sys := newSys(t)
	cmd := sys.Command("true")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	ps1, err := cmd.Process.Wait()
	if err != nil {
		t.Fatal(err)
	}
	ps2, err := cmd.Process.Wait()
	if err != nil || ps1 != ps2 {
		t.Errorf("second Wait = (%v, %v), want cached state", ps2, err)
	}
}

func TestRunBudgetStopsRunaway(t *testing.T) {
	const spin = `
_start:
    b _start
`
	sys := newSys(t, sim.WithProgram("/bin/spin", spin), sim.WithRunBudget(100_000))
	err := sys.Command("/bin/spin").Run()
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("want budget error, got %v", err)
	}
}

func TestDeadlockSurfacesTyped(t *testing.T) {
	sys := newSys(t, sim.WithRunBudget(10_000_000))
	err := sys.Command("threads_deadlock").Run()
	var dl *sim.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("want *DeadlockError, got %v", err)
	}
	if len(dl.Threads) == 0 {
		t.Error("deadlock report names no threads")
	}
}

func TestClosedFileReportsErrorNotPanic(t *testing.T) {
	sys := newSys(t)
	r, w := sys.Pipe()
	r.Close()
	w.Close()
	if _, err := r.Read(make([]byte, 1)); err == nil {
		t.Error("Read after Close succeeded")
	}
	if _, err := w.Write([]byte("x")); err == nil {
		t.Error("Write after Close succeeded")
	}
}

// TestDeviceNodesCleanedUpViaProcessWait waits through Process.Wait
// (not Cmd.Wait) and checks the per-command /dev nodes are unlinked.
func TestDeviceNodesCleanedUpViaProcessWait(t *testing.T) {
	sys := newSys(t)
	var buf bytes.Buffer
	cmd := sys.Command("echo", "tidy")
	cmd.Stdout = &buf
	p, err := cmd.Create()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	devs, err := sys.ReadDir("/dev")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range devs {
		if strings.HasPrefix(d, "cmd") {
			t.Errorf("leaked device node /dev/%s", d)
		}
	}
}

func TestCommandBareNameResolvesToBin(t *testing.T) {
	sys := newSys(t)
	cmd := sys.Command("true")
	if cmd.Path != "/bin/true" {
		t.Errorf("Path = %q", cmd.Path)
	}
}

func TestProgramsListsUserland(t *testing.T) {
	names := sim.Programs()
	found := false
	for _, n := range names {
		if n == "echo" {
			found = true
		}
	}
	if !found {
		t.Errorf("Programs() = %v, missing echo", names)
	}
}

func ExampleSystem_Command() {
	sys, _ := sim.NewSystem()
	out, _ := sys.Command("echo", "no", "forks", "given").Output()
	fmt.Print(string(out))
	// Output: no forks given
}

// --- SMP ----------------------------------------------------------

// TestWithCPUsIdenticalOutput: the same pipeline produces the same
// bytes at every CPU count — parallelism changes virtual timing, never
// results.
func TestWithCPUsIdenticalOutput(t *testing.T) {
	var want []byte
	for _, cpus := range []int{1, 2, 8} {
		sys := newSys(t, sim.WithCPUs(cpus))
		if got := sys.NumCPUs(); got != cpus {
			t.Fatalf("NumCPUs = %d, want %d", got, cpus)
		}
		out, err := sys.Command("echo", "same", "on", "every", "machine").Via(sim.ForkExec).Output()
		if err != nil {
			t.Fatalf("%d CPUs: %v", cpus, err)
		}
		if want == nil {
			want = out
		} else if !bytes.Equal(out, want) {
			t.Errorf("%d CPUs produced %q, want %q", cpus, out, want)
		}
		st := sys.Stats()
		if st.NumCPUs != cpus || len(st.CPUBusy) != cpus || len(st.CPUUtilization) != cpus {
			t.Errorf("Stats per-CPU shape wrong: %+v", st)
		}
		if cpus == 1 && st.TLBShootdowns != 0 {
			t.Errorf("1-CPU machine charged %d shootdown IPIs", st.TLBShootdowns)
		}
	}
}

// TestWithCPUsRejectsBadCount: option validation surfaces the kernel's
// explicit error instead of clamping.
func TestWithCPUsRejectsBadCount(t *testing.T) {
	if _, err := sim.NewSystem(sim.WithCPUs(-3)); err == nil {
		t.Error("negative CPU count accepted")
	}
	if _, err := sim.NewSystem(sim.WithCPUs(65)); err == nil {
		t.Error("65-CPU machine accepted (limit is 64)")
	}
}

// TestProcessStateCPUTime: a finished process reports the virtual CPU
// time it executed, per CPU.
func TestProcessStateCPUTime(t *testing.T) {
	sys := newSys(t, sim.WithCPUs(2))
	cmd := sys.Command("echo", "hi")
	cmd.Stdout = new(bytes.Buffer)
	if err := cmd.Run(); err != nil {
		t.Fatal(err)
	}
	ps := cmd.ProcessState
	if ps.CPUTime() <= 0 {
		t.Errorf("CPUTime = %v, want > 0", ps.CPUTime())
	}
	times := ps.CPUTimes()
	if len(times) != 2 {
		t.Fatalf("CPUTimes has %d entries", len(times))
	}
	var sum int64
	for _, d := range times {
		sum += int64(d)
	}
	if int64(ps.CPUTime()) != sum {
		t.Errorf("CPUTime %v != sum of per-CPU times %v", ps.CPUTime(), sum)
	}
}
