package kernel

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/abi"
	"repro/internal/addrspace"
	"repro/internal/asm"
	"repro/internal/mem"
	"repro/internal/ulib"
	"repro/internal/vfs"
)

// ckErr asserts err is a *CheckpointError whose reason mentions want.
func ckErr(t *testing.T, err error, want string) {
	t.Helper()
	var ce *CheckpointError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CheckpointError about %q", err, want)
	}
	if !strings.Contains(ce.Reason, want) {
		t.Errorf("refusal %q does not mention %q", ce.Reason, want)
	}
}

// TestCheckpointRefusals enumerates the fork-entangled states that
// cannot be serialized one-sided — the paper's claim as a type error.
func TestCheckpointRefusals(t *testing.T) {
	k, _ := boot(t, Options{})
	host := k.NewSynthetic("host", nil)

	// A vfork child borrows the parent's space: refused.
	child, err := k.ForkWithMode(host, ForkVfork)
	if err != nil {
		t.Fatal(err)
	}
	_, err = k.CheckpointProcess(child, CheckpointOpts{})
	ckErr(t, err, "borrowed")

	// The parent has an unreaped child: refused too.
	_, err = k.CheckpointProcess(host, CheckpointOpts{})
	ckErr(t, err, "children")
	k.DestroyProcess(child)

	// A pipe end's peer stays behind: refused.
	r, w := vfs.NewPipe()
	rfd, err := host.FDs().Install(r, false, 0)
	if err != nil {
		w.Release()
		t.Fatal(err)
	}
	_, err = k.CheckpointProcess(host, CheckpointOpts{})
	ckErr(t, err, "pipe")
	host.FDs().Close(rfd)
	w.Release()

	// MAP_SHARED memory is visible to other processes on the source
	// machine: refused.
	sh, err := host.Space().Map(0, mem.PageSize, addrspace.Read|addrspace.Write,
		addrspace.MapOpts{Name: "shm", Shared: true})
	if err != nil {
		t.Fatal(err)
	}
	_, err = k.CheckpointProcess(host, CheckpointOpts{})
	ckErr(t, err, "MAP_SHARED")
	if err := host.Space().Unmap(sh.Start, sh.Len()); err != nil {
		t.Fatal(err)
	}

	// Disentangled, the same process serializes fine.
	if _, err := k.CheckpointProcess(host, CheckpointOpts{}); err != nil {
		t.Errorf("disentangled checkpoint failed: %v", err)
	}

	// Dead processes refuse.
	k.DestroyProcess(host)
	_, err = k.CheckpointProcess(host, CheckpointOpts{})
	ckErr(t, err, "not alive")
}

// futexWakeSrc is a two-thread program. The main thread waits in
// futex_wait on fw_word; a waker thread sleeps 1 ms, sets the word,
// wakes up to eight waiters and records how many woke, and the main
// thread exits with that count. A run therefore ends in exit status 1
// only if the main thread was still queued on the futex when the wake
// came. sim's TestCloneBlockedFutexWaiter runs the same program.
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

// bootFutexWake boots a machine with futexWakeSrc installed at
// /bin/futexwake; with start set it also runs the program as init.
func bootFutexWake(t *testing.T, start bool) (*Kernel, *Process) {
	t.Helper()
	k, _ := boot(t, Options{})
	im, err := asm.Assemble(futexWakeSrc + ulib.Runtime)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.InstallImage("/bin/futexwake", im); err != nil {
		t.Fatal(err)
	}
	if !start {
		return k, nil
	}
	p, err := k.BootInit("/bin/futexwake", []string{"/bin/futexwake"})
	if err != nil {
		t.Fatal(err)
	}
	return k, p
}

// runUntilBlocked runs k one instruction at a time until p has two
// live threads and both are blocked: futexWakeSrc's main thread in
// futex_wait and its waker in nanosleep. A Run that stops for any
// other reason fails the test.
func runUntilBlocked(t *testing.T, k *Kernel, p *Process) {
	t.Helper()
	for {
		blocked := 0
		for _, th := range p.Threads() {
			if th.State() == TBlocked {
				blocked++
			}
		}
		if blocked == 2 && p.LiveThreads() == 2 {
			return
		}
		if err := k.Run(RunLimits{MaxInstructions: 1}); err != nil || k.LastStop() != StopLimit {
			t.Fatalf("machine stopped (%v, err %v) before both threads of %s blocked", k.LastStop(), err, p.Name)
		}
	}
}

// TestCheckpointRestoreAcrossMachines migrates futexWakeSrc while its
// main thread waits in futex_wait and its waker sleeps. Both threads
// restore as runnable: the main thread re-executes the blocked syscall
// and blocks again on the *target* machine's futex queue, the waker
// resumes its sleep, and the restored process then finishes as a cold
// run does, waking exactly one waiter.
func TestCheckpointRestoreAcrossMachines(t *testing.T) {
	src, p := bootFutexWake(t, true)
	runUntilBlocked(t, src, p)
	img, err := src.CheckpointProcess(p, CheckpointOpts{})
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if img.PageBytes() == 0 {
		t.Fatal("image carries no pages")
	}
	if len(img.Threads) != 2 || !img.Threads[0].Runnable || !img.Threads[1].Runnable {
		t.Fatalf("threads = %+v, want two runnable (blocked syscalls restart)", img.Threads)
	}
	if img.Threads[0].SleepLeft != 0 || img.Threads[1].SleepLeft == 0 {
		t.Errorf("sleep left = %v and %v, want only the waker asleep",
			img.Threads[0].SleepLeft, img.Threads[1].SleepLeft)
	}

	dst, _ := bootFutexWake(t, false)
	rp, err := dst.RestoreProcess(img)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if rp.Name != p.Name {
		t.Errorf("restored name = %q, want %q", rp.Name, p.Name)
	}
	// Run: the main thread retries futex_wait and blocks on dst.
	runUntilBlocked(t, dst, rp)

	finish := func(k *Kernel, p *Process) uint64 {
		t.Helper()
		if err := k.Run(RunLimits{MaxInstructions: 1_000_000}); err != nil {
			t.Fatalf("run %s: %v", p.Name, err)
		}
		if p.State() == ProcAlive {
			t.Fatalf("%s still alive after the run stopped %v", p.Name, k.LastStop())
		}
		return p.ExitStatus()
	}
	cold, cp := bootFutexWake(t, true)
	want := finish(cold, cp)
	if code := abi.StatusExitCode(want); code != 1 {
		t.Fatalf("cold run exited %d, want 1 (one waiter woken)", code)
	}
	if got := finish(dst, rp); got != want {
		t.Errorf("migrated exit status %#x, cold %#x", got, want)
	}

	// The source still owns its original: checkpoint was a read.
	if p.State() != ProcAlive {
		t.Error("source process died from being checkpointed")
	}
}

// TestRestoreMissingFile: an image referencing a file the target does
// not carry fails cleanly and leaves no half-restored process behind.
func TestRestoreMissingFile(t *testing.T) {
	src, _ := boot(t, Options{})
	p, err := src.BootInit("/bin/true", []string{"/bin/true"})
	if err != nil {
		t.Fatal(err)
	}
	img, err := src.CheckpointProcess(p, CheckpointOpts{})
	if err != nil {
		t.Fatal(err)
	}

	dst := mustNew(t, Options{}) // no ulib: /bin/true does not exist
	before := dst.ProcessCount()
	pages := dst.Phys().AllocatedPages()
	if _, err := dst.RestoreProcess(img); err == nil {
		t.Fatal("restore with missing backing file succeeded")
	}
	if got := dst.ProcessCount(); got != before {
		t.Errorf("process count %d -> %d: restore leaked a process", before, got)
	}
	if got := dst.Phys().AllocatedPages(); got != pages {
		t.Errorf("allocated pages %d -> %d: restore leaked frames", pages, got)
	}
}
