package addrspace

import (
	"slices"

	"repro/internal/errno"
	"repro/internal/mem"
	"repro/internal/pagetable"
)

// This file is the address-space half of checkpoint/restore: walking
// the page table to extract resident pages into host-side records
// (CapturePages) and installing them into a freshly built space on
// another machine (InstallPage). Iterative pre-copy migration rides
// on the same dirty tracking COW already maintains: CapturePages can
// downgrade every page it copies to read-only-clean, so the next
// write re-faults through cowBreak's sole-owner upgrade path — which
// re-sets FlagDirty — and the following round harvests exactly the
// pages mutated since this one.

// PageRecord is one resident page captured from a space. Flags are
// the PTE flag bits to restore with (FlagPresent is implied;
// FlagHuge distinguishes 2 MiB pages). Data is nil for frames that
// were never materialised on the host — they are logically zero and
// restore as lazily-zero frames, though their capture still priced a
// full page copy (the simulated machine moved the bytes either way).
type PageRecord struct {
	VA    uint64
	Flags pagetable.PTE
	Data  []byte
}

// Pages reports the record's size in 4 KiB pages.
func (r *PageRecord) Pages() uint64 {
	if r.Flags&pagetable.FlagHuge != 0 {
		return mem.FramesPerHuge
	}
	return 1
}

// CapturePages walks the page table and appends a record per resident
// page to dst, in strictly ascending va order (a huge page is one
// record, at its base) — the checkpoint serialization pass, priced at
// one page copy per captured 4 KiB (HugeCopy for huge pages). That
// order is the contract RestoreProcess checks: it installs an image's
// records in one pass and refuses a record that breaks it.
//
// dst is the caller's storage, returned extended as append does. A
// caller that captures in a loop passes its last result sliced to
// zero length, and once the storage has grown to the space's size no
// capture allocates a record slice; passing nil allocates one that the
// result owns. A full capture grows dst to the page table's entry
// count up front.
//
// dirtyOnly restricts the capture to pages with FlagDirty set: the
// pre-copy rounds of live migration, which only re-ship what was
// mutated since the last rearmed capture. rearm downgrades every
// captured private page to read-only-clean (one batched TLB
// shootdown round when anything was downgraded), arming the dirty
// tracking for the next round; MAP_SHARED pages are captured but
// never rearmed — cowBreak would misread a write-protected shared
// page as a protection violation.
func (s *Space) CapturePages(dst []PageRecord, dirtyOnly, rearm bool) []PageRecord {
	if !dirtyOnly {
		dst = slices.Grow(dst, s.pt.Entries())
	}
	downgraded := 0
	s.pt.Visit(func(va uint64, e pagetable.PTE) pagetable.PTE {
		if dirtyOnly && e&pagetable.FlagDirty == 0 {
			return e
		}
		f := e.Frame()
		r := PageRecord{VA: va, Flags: e.Flags()}
		if s.phys.Materialised(f) {
			buf := make([]byte, f.Size())
			s.phys.Read(f, 0, buf)
			r.Data = buf
		}
		if f.IsHuge() {
			s.meter.Charge(s.meter.Model.HugeCopy)
			s.meter.PageCopies += mem.FramesPerHuge
		} else {
			s.meter.Charge(s.meter.Model.PageCopy)
			s.meter.PageCopies++
		}
		dst = append(dst, r)
		if rearm && !e.Shared() {
			ne := e.Without(pagetable.FlagDirty | pagetable.FlagWritable)
			if ne != e {
				downgraded++
			}
			return ne
		}
		return e
	})
	if downgraded > 0 {
		// The downgrades shrank translations other CPUs may cache:
		// one batched invalidation round, like Protect.
		s.shootdown()
	}
	return dst
}

// DirtyPages counts resident pages with FlagDirty set (in 4 KiB
// units), without copying or rewriting anything — the migration
// driver's "is the residue small enough to stop" probe.
func (s *Space) DirtyPages() uint64 {
	var n uint64
	s.pt.Visit(func(_ uint64, e pagetable.PTE) pagetable.PTE {
		if e&pagetable.FlagDirty != 0 {
			n += e.Frame().Pages()
		}
		return e
	})
	return n
}

// InstallPage materialises one captured page in s: a fresh frame is
// allocated (and paid for), the recorded bytes copied in, and the PTE
// installed with the recorded flags minus FlagCOW — the restored
// space owns every frame privately, so the COW bit would be a lie
// (write faults still work either way: the sole-owner upgrade path
// handles both). The target VMA must already be mapped; commit was
// reserved when it was.
//
// Installing over an already-resident page replaces it: the old frame
// is released (one PTE write, priced) before the new one goes in.
// That is what the pre-copy rounds of live migration do — each round
// re-ships the pages dirtied since the last, overwriting the stale
// copy the destination already holds.
//
// Records arrive from images and off the wire, so a record that cannot
// be a page of its VMA — a va not aligned to the VMA's page size, a
// FlagHuge that disagrees with the VMA, or Data that is neither nil
// nor exactly one page — fails with EINVAL before anything changes.
func (s *Space) InstallPage(r PageRecord) error {
	v := s.FindVMA(r.VA)
	if v == nil {
		return errno.EFAULT
	}
	huge := r.Flags&pagetable.FlagHuge != 0
	size := v.pageSize()
	if huge != v.Huge || r.VA%size != 0 || (r.Data != nil && uint64(len(r.Data)) != size) {
		return errno.EINVAL
	}
	if old, ok := s.pt.Unmap(r.VA); ok {
		s.releaseEntry(old)
	}
	var f mem.FrameID
	var err error
	if huge {
		f, err = s.phys.AllocHugeZero()
	} else {
		f, err = s.phys.AllocZero()
	}
	if err != nil {
		return err
	}
	if r.Data != nil {
		s.phys.Write(f, 0, r.Data)
		if huge {
			s.meter.Charge(s.meter.Model.HugeCopy)
			s.meter.PageCopies += mem.FramesPerHuge
		} else {
			s.meter.Charge(s.meter.Model.PageCopy)
			s.meter.PageCopies++
		}
	}
	flags := r.Flags.Without(pagetable.FlagCOW | pagetable.FlagHuge)
	if huge {
		s.pt.MapHuge(r.VA, pagetable.Make(f, flags))
	} else {
		s.pt.Map(r.VA, pagetable.Make(f, flags))
	}
	// The restore writes the page's bytes through the fresh mapping:
	// pay the walk and leave the TLB warm, exactly as the original
	// machine's image loader did when it first populated the page.
	s.pt.Lookup(r.VA)
	s.rssPages += f.Pages()
	return nil
}

// BrkBase reports the heap origin (0 ⇒ no heap established).
func (s *Space) BrkBase() uint64 { return s.brkBase }

// RestoreBrk reinstates checkpointed heap bookkeeping. The heap VMAs
// themselves are restored through Map like any other VMA; this only
// sets the origin and break that SetBrk steers by.
func (s *Space) RestoreBrk(base, brk uint64) {
	s.brkBase, s.brk = base, brk
}
