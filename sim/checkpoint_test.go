package sim_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/addrspace"
	"repro/internal/errno"
	"repro/internal/kernel"
	"repro/internal/pagetable"
	"repro/sim"
	"repro/sim/fault"
)

// rebasedTrace renders a machine's trace with times rebased to the
// first event, so two runs that differ only by when they started can
// be byte-compared.
func rebasedTrace(events []fault.Event) string {
	if len(events) == 0 {
		return ""
	}
	base := events[0].Time
	var b strings.Builder
	for _, e := range events {
		e.Time -= base
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestRestoreRoundTripByteIdentical is the migration fidelity
// contract: create a process, checkpoint it, restore it on a second
// machine, and run it there. Everything observable after the handoff
// point — console bytes, exit state, per-CPU times, and the rebased
// event trace — must be byte-identical to an unmigrated run on a
// machine that created the process itself.
func TestRestoreRoundTripByteIdentical(t *testing.T) {
	for _, g := range goldenStrategies {
		g := g
		t.Run(g.name, func(t *testing.T) {
			mk := func(buf *bytes.Buffer) (*sim.System, *sim.Process) {
				sys := newSys(t, sim.WithTrace(), sim.WithConsole(buf), sim.WithUserland("echo"))
				p, err := sys.Command("echo", "moved", "intact").Via(g.via).Create()
				if err != nil {
					t.Fatal(err)
				}
				return sys, p
			}

			// The unmigrated control: same machine creates and runs.
			var outA bytes.Buffer
			sysA, pA := mk(&outA)
			sysA.Trace().Reset()
			if err := pA.Start(); err != nil {
				t.Fatal(err)
			}
			psA, err := pA.Wait()
			if err != nil {
				t.Fatal(err)
			}

			// The migrated run: checkpoint on B, restore on C.
			var outB, outC bytes.Buffer
			_, pB := mk(&outB)
			img, err := pB.Checkpoint()
			if err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
			sysC := newSys(t, sim.WithTrace(), sim.WithConsole(&outC), sim.WithUserland("echo"))
			pC, err := sysC.Restore(img)
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			if pC.Pid() != pA.Pid() {
				t.Fatalf("restored pid %d, control pid %d — trace compare needs matching pids", pC.Pid(), pA.Pid())
			}
			sysC.Trace().Reset()
			if err := pC.Start(); err != nil {
				t.Fatal(err)
			}
			psC, err := pC.Wait()
			if err != nil {
				t.Fatal(err)
			}

			if got, want := outC.String(), outA.String(); got != want {
				t.Errorf("console bytes diverged: %q vs %q", got, want)
			}
			if outB.Len() != 0 {
				t.Errorf("source machine ran the process before migration: %q", outB.String())
			}
			if psC.Sys() != psA.Sys() || psC.OOMKilled() != psA.OOMKilled() {
				t.Errorf("exit state diverged: %v vs %v", psC, psA)
			}
			ctA, ctC := psA.CPUTimes(), psC.CPUTimes()
			if len(ctA) != len(ctC) {
				t.Fatalf("cpu count diverged: %d vs %d", len(ctC), len(ctA))
			}
			for i := range ctA {
				if ctA[i] != ctC[i] {
					t.Errorf("cpu%d time %v vs %v", i, ctC[i], ctA[i])
				}
			}
			gotTrace := rebasedTrace(sysC.Trace().Events())
			wantTrace := rebasedTrace(sysA.Trace().Events())
			if gotTrace != wantTrace {
				t.Errorf("rebased traces diverged:\nmigrated:\n%s\ncontrol:\n%s", gotTrace, wantTrace)
			}
		})
	}
}

// TestCheckpointRefusalSurfaces: the kernel's typed refusal crosses
// the sim API intact, so migration drivers can distinguish "cannot
// move this one" from real failures.
func TestCheckpointRefusalSurfaces(t *testing.T) {
	sys := newSys(t, sim.WithUserland("true"))
	k := sys.Kernel()
	child, err := k.ForkWithMode(sys.Host(), kernel.ForkVfork)
	if err != nil {
		t.Fatal(err)
	}
	defer k.DestroyProcess(child)
	// Wrap the raw vfork borrower in the sim handle the way a
	// migration driver sees it.
	_, err = sys.ProcessOf(child).Checkpoint()
	var ce *kernel.CheckpointError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *kernel.CheckpointError", err)
	}
	if !strings.Contains(ce.Reason, "borrowed") {
		t.Errorf("reason = %q, want the vfork borrow named", ce.Reason)
	}
}

// TestRestoreMixedPageSizes: a checkpoint of a space holding both
// 2 MiB and 4 KiB pages lists them in one strictly ascending sequence
// (a huge page is one record, at its base), and restore installs that
// sequence as given, rebuilding the same resident set.
func TestRestoreMixedPageSizes(t *testing.T) {
	src := newSys(t)
	if err := src.DirtyHost(4<<20, true); err != nil {
		t.Fatal(err)
	}
	if err := src.DirtyHost(64<<10, false); err != nil {
		t.Fatal(err)
	}
	img, err := src.ProcessOf(src.Host()).Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	pages := img.Raw().Pages
	var huge, small int
	for i := range pages {
		if i > 0 && pages[i].VA <= pages[i-1].VA {
			t.Fatalf("record %d at %#x follows %#x: capture order is not strictly ascending", i, pages[i].VA, pages[i-1].VA)
		}
		if pages[i].Pages() > 1 {
			huge++
		} else {
			small++
		}
	}
	if huge != 2 || small != 16 {
		t.Fatalf("image has %d huge and %d 4 KiB records, want 2 and 16", huge, small)
	}
	p, err := newSys(t).Restore(img)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got, want := p.Raw().Space().RSS(), src.Host().Space().RSS(); got != want {
		t.Errorf("restored RSS %d bytes, source %d", got, want)
	}
}

// TestRestoreRejectsCorruptImages: a corrupted image is bad input, so
// Restore must refuse it with EINVAL, never panic, and unwind whatever
// it built — the target's process table, allocated frames and commit
// charge all return to their values before the call. Page records
// install in one pass in the image's order, which must be strictly
// ascending va, so the page cases corrupt the last (highest-addressed)
// record or the order itself: other pages are installed first and the
// unwind has real frames to give back, through the address space's
// Destroy.
func TestRestoreRejectsCorruptImages(t *testing.T) {
	top := func(img *kernel.ProcImage) *addrspace.PageRecord { return &img.Pages[len(img.Pages)-1] }
	for _, tc := range []struct {
		name    string
		corrupt func(img *kernel.ProcImage)
	}{
		{"fd-desc-past-end", func(img *kernel.ProcImage) { img.FDs[len(img.FDs)-1].Desc = len(img.Descs) }},
		{"fd-desc-negative", func(img *kernel.ProcImage) { img.FDs[0].Desc = -1 }},
		{"page-va-unaligned", func(img *kernel.ProcImage) { top(img).VA += 8 }},
		{"page-data-past-frame", func(img *kernel.ProcImage) { top(img).Data = make([]byte, 4097) }},
		{"page-data-short", func(img *kernel.ProcImage) { top(img).Data = []byte{1} }},
		{"page-huge-in-4k-region", func(img *kernel.ProcImage) { top(img).Flags |= pagetable.FlagHuge }},
		{"page-out-of-order", func(img *kernel.ProcImage) {
			n := len(img.Pages)
			img.Pages[n-2], img.Pages[n-1] = img.Pages[n-1], img.Pages[n-2]
		}},
		{"page-duplicate-va", func(img *kernel.ProcImage) { img.Pages = append(img.Pages, *top(img)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := newSys(t, sim.WithUserland("echo"))
			p, err := src.Command("echo", "corrupt").Via(sim.Spawn).Create()
			if err != nil {
				t.Fatal(err)
			}
			img, err := p.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			raw := img.Raw()
			if len(raw.FDs) == 0 || len(raw.Pages) == 0 {
				t.Fatalf("image has %d fds and %d pages; the cases need both", len(raw.FDs), len(raw.Pages))
			}
			// Two more valid pages just below the top one, in ascending
			// order before it (an unstarted echo has touched only its top
			// stack page).
			last := *top(raw)
			lo, mid := last, last
			lo.VA -= 2 * 4096
			mid.VA -= 4096
			raw.Pages = append(raw.Pages[:len(raw.Pages)-1], lo, mid, last)
			for i := 1; i < len(raw.Pages); i++ {
				if raw.Pages[i].VA <= raw.Pages[i-1].VA {
					t.Fatalf("uncorrupted image is not strictly ascending at record %d", i)
				}
			}
			tc.corrupt(raw)

			dst := newSys(t, sim.WithUserland("echo"))
			k := dst.Kernel()
			procs, frames, commit := k.ProcessCount(), k.Phys().AllocatedPages(), k.Phys().Committed()
			if _, err := dst.Restore(img); !errors.Is(err, errno.EINVAL) {
				t.Fatalf("Restore err = %v, want EINVAL", err)
			}
			if got := k.ProcessCount(); got != procs {
				t.Errorf("processes %d after the refused restore, %d before", got, procs)
			}
			if got := k.Phys().AllocatedPages(); got != frames {
				t.Errorf("allocated pages %d after the refused restore, %d before", got, frames)
			}
			if got := k.Phys().Committed(); got != commit {
				t.Errorf("committed pages %d after the refused restore, %d before", got, commit)
			}
		})
	}
}
