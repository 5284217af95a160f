package kernel

import (
	"errors"
	"strconv"
	"testing"

	"repro/internal/cost"
)

// TestOptionsValidation: invalid machine configurations must be
// explicit errors, not silent defaults or clamps.
func TestOptionsValidation(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"zero RAM", Options{NumCPUs: 1}},
		{"sub-page RAM", Options{RAMBytes: 1024, NumCPUs: 1}},
		{"negative quantum", Options{RAMBytes: 1 << 30, NumCPUs: 1, Quantum: -1}},
		{"zero CPUs", Options{RAMBytes: 1 << 30}},
		{"negative CPUs", Options{RAMBytes: 1 << 30, NumCPUs: -2}},
		{"too many CPUs", Options{RAMBytes: 1 << 30, NumCPUs: cost.MaxCPUs + 1}},
		{"unknown commit policy", Options{RAMBytes: 64 << 20, NumCPUs: 1, Commit: 7}},
		{"negative commit policy", Options{RAMBytes: 64 << 20, NumCPUs: 1, Commit: -1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.opts.Validate(); err == nil {
				t.Errorf("Validate(%+v) = nil, want error", c.opts)
			}
			if _, err := New(c.opts); err == nil {
				t.Errorf("New(%+v) = nil error, want error", c.opts)
			}
		})
	}
	if err := DefaultOptions().Validate(); err != nil {
		t.Errorf("DefaultOptions invalid: %v", err)
	}
	if _, err := New(Options{RAMBytes: 64 << 20, NumCPUs: 8}); err != nil {
		t.Errorf("valid 8-CPU machine rejected: %v", err)
	}
}

// smpRun boots the named program as init on ncpus and runs it to
// completion, returning the kernel and console output.
func smpRun(t *testing.T, ncpus int, prog string, argv ...string) (*Kernel, string) {
	t.Helper()
	k, out := boot(t, Options{NumCPUs: ncpus})
	if _, err := k.BootInit("/bin/"+prog, append([]string{prog}, argv...)); err != nil {
		t.Fatalf("BootInit: %v", err)
	}
	if err := k.Run(RunLimits{MaxInstructions: 50_000_000}); err != nil {
		t.Fatalf("run: %v", err)
	}
	if k.LastStop() == StopLimit {
		t.Fatal("instruction limit hit")
	}
	return k, out.String()
}

type runFingerprint struct {
	out           string
	elapsed       cost.Ticks
	instructions  uint64
	switches      uint64
	shootdowns    uint64
	pageCopies    uint64
	faults        uint64
	perCPUClock   [8]cost.Ticks
	perCPUSwitch  [8]uint64
	perCPUStolen  [8]uint64
	liveProcesses int
}

func fingerprint(k *Kernel, out string) runFingerprint {
	fp := runFingerprint{
		out:           out,
		elapsed:       k.Elapsed(),
		instructions:  k.Meter().Instructions,
		switches:      k.ContextSwitches(),
		shootdowns:    k.Meter().TLBShootdowns,
		pageCopies:    k.Meter().PageCopies,
		faults:        k.Meter().PageFaults,
		liveProcesses: k.LiveProcessCount(),
	}
	for _, cs := range k.CPUStates() {
		if cs.CPU < len(fp.perCPUClock) {
			fp.perCPUClock[cs.CPU] = cs.Clock
			fp.perCPUSwitch[cs.CPU] = cs.Switches
			fp.perCPUStolen[cs.CPU] = cs.Steals
		}
	}
	return fp
}

// TestSMPDeterminism: the whole machine — output, virtual time, every
// scheduler and memory counter, per CPU — must be bit-identical across
// repeated runs at 1, 2, and 8 CPUs. This is the acceptance bar for
// the N-CPU refactor.
func TestSMPDeterminism(t *testing.T) {
	for _, ncpus := range []int{1, 2, 8} {
		t.Run(strconv.Itoa(ncpus)+"cpu", func(t *testing.T) {
			var first runFingerprint
			for rep := 0; rep < 2; rep++ {
				k, out := smpRun(t, ncpus, "threads_sum")
				if out != "2000\n" {
					t.Fatalf("threads_sum printed %q", out)
				}
				fp := fingerprint(k, out)
				if rep == 0 {
					first = fp
				} else if fp != first {
					t.Errorf("run diverged at %d CPUs:\nfirst:  %+v\nsecond: %+v", ncpus, first, fp)
				}
			}
		})
	}
}

// TestSMPThreadsOverlap: with more CPUs, the same multithreaded
// workload must finish in less elapsed virtual time (threads genuinely
// run in parallel), while executing at least as many instructions.
func TestSMPThreadsOverlap(t *testing.T) {
	k1, _ := smpRun(t, 1, "threads_sum")
	k4, _ := smpRun(t, 4, "threads_sum")
	if k4.Elapsed() >= k1.Elapsed() {
		t.Errorf("4-CPU run not faster: %v vs %v at 1 CPU", k4.Elapsed(), k1.Elapsed())
	}
}

// spinBoot boots smpspin with the given worker count and CPUs; the
// program never exits, so callers drive it with bounded Run calls.
func spinBoot(t *testing.T, ncpus, workers int) (*Kernel, *Process) {
	t.Helper()
	k, _ := boot(t, Options{NumCPUs: ncpus})
	p, err := k.BootInit("/bin/smpspin", []string{"smpspin", strconv.Itoa(workers), strconv.Itoa(1 << 20)})
	if err != nil {
		t.Fatalf("BootInit: %v", err)
	}
	return k, p
}

// TestSMPFairnessNoStarvation: with more spinning threads than CPUs,
// every runnable thread must be dispatched within a bounded window of
// global quanta — nobody starves, on any queue.
func TestSMPFairnessNoStarvation(t *testing.T) {
	const workers = 6
	k, p := spinBoot(t, 2, workers)
	// Let the program set up (mmap, touch, thread creation).
	if err := k.Run(RunLimits{MaxInstructions: 200_000}); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	runnable := 0
	for _, th := range p.Threads() {
		if th.State() == TRunnable || th.State() == TRunning {
			runnable++
		}
	}
	if runnable < workers {
		t.Fatalf("only %d runnable threads after warmup, want >= %d", runnable, workers)
	}
	// A window of 4*(threads+2) quanta is far more than FIFO needs;
	// a thread missing a whole window is starving.
	window := uint64(4 * (workers + 2) * k.Options().Quantum)
	for round := 0; round < 5; round++ {
		before := map[int]uint64{}
		for _, th := range p.Threads() {
			if th.State() == TRunnable || th.State() == TRunning {
				before[th.TID] = th.Dispatches()
			}
		}
		if err := k.Run(RunLimits{MaxInstructions: window}); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for _, th := range p.Threads() {
			prev, ok := before[th.TID]
			if !ok || th.State() == TExited {
				continue
			}
			if th.Dispatches() <= prev {
				t.Fatalf("round %d: thread t%d starved (dispatches stuck at %d)", round, th.TID, prev)
			}
		}
	}
}

// TestSMPWorkStealingBalances: spinning threads spread across every
// CPU — each CPU dispatches work and accumulates busy time, and the
// per-CPU clocks stay in lockstep (the virtual-time-ordered dispatcher
// never lets one CPU run far ahead while work waits).
func TestSMPWorkStealingBalances(t *testing.T) {
	k, _ := spinBoot(t, 4, 4)
	if err := k.Run(RunLimits{MaxTicks: 20 * cost.Millisecond}); err != nil {
		t.Fatalf("run: %v", err)
	}
	states := k.CPUStates()
	var minClock, maxClock cost.Ticks
	for i, cs := range states {
		if cs.Switches == 0 {
			t.Errorf("cpu%d never dispatched", cs.CPU)
		}
		if cs.Busy == 0 {
			t.Errorf("cpu%d has no busy time", cs.CPU)
		}
		if i == 0 || cs.Clock < minClock {
			minClock = cs.Clock
		}
		if cs.Clock > maxClock {
			maxClock = cs.Clock
		}
	}
	// No CPU may lag more than a dispatch behind the frontier while
	// runnable work exists (quantum instructions + slack for one
	// long syscall).
	if gap := maxClock - minClock; gap > 2*cost.Millisecond {
		t.Errorf("CPU clocks diverged by %v (min %v, max %v)", gap, minClock, maxClock)
	}
	if k.LastStop() != StopLimit {
		t.Errorf("stop = %v, want limit", k.LastStop())
	}
	if info := k.LastStopInfo(); info.CPU < 0 || info.VirtualTime == 0 {
		t.Errorf("stop info not per-CPU aware: %+v", info)
	}
}

// TestSMPForkShootdownTax: forking a multithreaded server that is
// actively running on other CPUs charges shootdown IPIs; the same fork
// on a 1-CPU machine charges none. This wires the §5 claim through the
// whole kernel rather than just the addrspace unit.
func TestSMPForkShootdownTax(t *testing.T) {
	for _, ncpus := range []int{1, 4} {
		k, p := spinBoot(t, ncpus, 4)
		if err := k.Run(RunLimits{MaxTicks: 5 * cost.Millisecond}); err != nil {
			t.Fatalf("traffic: %v", err)
		}
		before := k.Meter().TLBShootdowns
		child, err := k.Fork(p)
		if err != nil {
			t.Fatalf("fork: %v", err)
		}
		got := k.Meter().TLBShootdowns - before
		if ncpus == 1 && got != 0 {
			t.Errorf("1-CPU fork sent %d IPIs", got)
		}
		if ncpus == 4 && got == 0 {
			t.Error("4-CPU fork of a running multithreaded server sent no IPIs")
		}
		k.DestroyProcess(child)
		k.DestroyProcess(p)
	}
}

// TestSMPDeadlockReportsPerCPUState: the §4.2 deadlock demo on a
// 2-CPU machine returns a DeadlockError carrying per-CPU scheduler
// state and a deterministically ordered thread list.
func TestSMPDeadlockReportsPerCPUState(t *testing.T) {
	k, _ := boot(t, Options{NumCPUs: 2})
	if _, err := k.BootInit("/bin/threads_deadlock", []string{"threads_deadlock"}); err != nil {
		t.Fatalf("BootInit: %v", err)
	}
	err := k.Run(RunLimits{MaxInstructions: 10_000_000})
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("Run = %v, want DeadlockError", err)
	}
	if len(dl.CPUs) != 2 {
		t.Errorf("DeadlockError.CPUs has %d entries, want 2", len(dl.CPUs))
	}
	if len(dl.Threads) < 2 {
		t.Errorf("stuck threads: %v", dl.Threads)
	}
	for i := 1; i < len(dl.Threads); i++ {
		if dl.Threads[i-1] > dl.Threads[i] {
			// pid/tid-sorted descriptions are lexicographic for
			// single-digit pids; a regression here means map
			// iteration leaked into the report.
			t.Errorf("thread list unsorted: %v", dl.Threads)
			break
		}
	}
	if k.LastStop() != StopDeadlock {
		t.Errorf("LastStop = %v", k.LastStop())
	}
}
