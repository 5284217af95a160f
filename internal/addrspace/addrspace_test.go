package addrspace

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/cost"
	"repro/internal/errno"
	"repro/internal/mem"
)

func newSpace(ramMiB uint64, pol mem.CommitPolicy) (*Space, *mem.Physical) {
	meter := cost.NewMeter(cost.DefaultModel())
	phys := mem.NewPhysical(meter, ramMiB<<20, pol)
	return New(phys, meter), phys
}

func TestMapAndFault(t *testing.T) {
	s, phys := newSpace(64, mem.CommitHeuristic)
	v, err := s.Map(0x10000, 3*mem.PageSize, Read|Write, MapOpts{Name: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if v.Start != 0x10000 || v.Len() != 3*mem.PageSize {
		t.Fatalf("vma = %v", v)
	}
	if s.RSS() != 0 {
		t.Errorf("RSS before touch = %d", s.RSS())
	}
	if err := s.Fault(0x10000, AccessWrite); err != nil {
		t.Fatal(err)
	}
	if s.RSS() != mem.PageSize {
		t.Errorf("RSS after one fault = %d", s.RSS())
	}
	if phys.AllocatedPages() != 1 {
		t.Errorf("allocated = %d", phys.AllocatedPages())
	}
	// Fault outside any VMA.
	if err := s.Fault(0x9000, AccessRead); !errors.Is(err, errno.EFAULT) {
		t.Errorf("outside fault: %v", err)
	}
	// Write fault on a read-only VMA.
	if _, err := s.Map(0x40000, mem.PageSize, Read, MapOpts{Name: "ro"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Fault(0x40000, AccessWrite); !errors.Is(err, errno.EFAULT) {
		t.Errorf("ro write fault: %v", err)
	}
	// Exec fault on non-exec VMA.
	if err := s.Fault(0x10000, AccessExec); !errors.Is(err, errno.EFAULT) {
		t.Errorf("nx exec fault: %v", err)
	}
}

func TestOverlapRejected(t *testing.T) {
	s, _ := newSpace(64, mem.CommitHeuristic)
	if _, err := s.Map(0x10000, 4*mem.PageSize, Read, MapOpts{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Map(0x12000, mem.PageSize, Read, MapOpts{}); !errors.Is(err, errno.EEXIST) {
		t.Errorf("overlap: %v, want EEXIST", err)
	}
	// Unaligned.
	if _, err := s.Map(0x10001+4*mem.PageSize, mem.PageSize, Read, MapOpts{}); !errors.Is(err, errno.EINVAL) {
		t.Errorf("unaligned: %v, want EINVAL", err)
	}
}

func TestFindGap(t *testing.T) {
	s, _ := newSpace(64, mem.CommitHeuristic)
	a, err := s.Map(0, 1<<20, Read|Write, MapOpts{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Map(0, 1<<20, Read|Write, MapOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Start < MmapBase || b.Start < MmapBase {
		t.Errorf("gaps below arena: %#x %#x", a.Start, b.Start)
	}
	if b.Start < a.End && a.Start < b.End {
		t.Errorf("gap allocations overlap: %v %v", a, b)
	}
}

func TestUnmapSplit(t *testing.T) {
	s, phys := newSpace(64, mem.CommitHeuristic)
	v, err := s.Map(0x100000, 4*mem.PageSize, Read|Write, MapOpts{Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Touch(v.Start, v.Len(), AccessWrite); err != nil {
		t.Fatal(err)
	}
	if phys.AllocatedPages() != 4 {
		t.Fatalf("allocated = %d", phys.AllocatedPages())
	}
	// Punch out the middle two pages.
	if err := s.Unmap(v.Start+mem.PageSize, 2*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	if len(s.VMAs()) != 2 {
		t.Fatalf("VMAs after split = %d: %s", len(s.VMAs()), s.Dump())
	}
	if phys.AllocatedPages() != 2 {
		t.Errorf("allocated after punch = %d", phys.AllocatedPages())
	}
	if err := s.Fault(v.Start+mem.PageSize, AccessRead); !errors.Is(err, errno.EFAULT) {
		t.Errorf("hole still mapped: %v", err)
	}
	if err := s.Fault(v.Start, AccessRead); err != nil {
		t.Errorf("left fragment unmapped: %v", err)
	}
}

func TestBrk(t *testing.T) {
	s, _ := newSpace(64, mem.CommitHeuristic)
	s.SetupHeap(0x600000)
	if got, _ := s.SetBrk(0); got != 0x600000 {
		t.Fatalf("initial brk = %#x", got)
	}
	nb, err := s.SetBrk(0x600000 + 10*mem.PageSize)
	if err != nil || nb != 0x600000+10*uint64(mem.PageSize) {
		t.Fatalf("grow: %#x %v", nb, err)
	}
	if err := s.Touch(0x600000, 10*mem.PageSize, AccessWrite); err != nil {
		t.Fatalf("heap touch: %v", err)
	}
	// Shrink.
	if _, err := s.SetBrk(0x600000 + 2*mem.PageSize); err != nil {
		t.Fatalf("shrink: %v", err)
	}
	if err := s.Fault(0x600000+5*uint64(mem.PageSize), AccessRead); !errors.Is(err, errno.EFAULT) {
		t.Errorf("shrunk heap still mapped: %v", err)
	}
	// Below base.
	if _, err := s.SetBrk(0x500000); !errors.Is(err, errno.EINVAL) {
		t.Errorf("brk below base: %v", err)
	}
}

func TestReadWriteBytesAcrossPages(t *testing.T) {
	s, _ := newSpace(64, mem.CommitHeuristic)
	v, _ := s.Map(0x100000, 3*mem.PageSize, Read|Write, MapOpts{})
	data := make([]byte, 2*mem.PageSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	addr := v.Start + mem.PageSize/2 // straddles two boundaries
	if err := s.WriteBytes(addr, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := s.ReadBytes(addr, got); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d = %d, want %d", i, got[i], data[i])
		}
	}
}

func TestCloneCOWIsolation(t *testing.T) {
	s, phys := newSpace(64, mem.CommitHeuristic)
	v, _ := s.Map(0x100000, 4*mem.PageSize, Read|Write, MapOpts{})
	if err := s.WriteBytes(v.Start, []byte("shared state")); err != nil {
		t.Fatal(err)
	}
	allocBefore := phys.AllocatedPages()
	c, err := s.CloneCOW()
	if err != nil {
		t.Fatal(err)
	}
	if phys.AllocatedPages() != allocBefore {
		t.Errorf("clone allocated %d frames; COW should share", phys.AllocatedPages()-allocBefore)
	}
	buf := make([]byte, 12)
	if err := c.ReadBytes(v.Start, buf); err != nil || string(buf) != "shared state" {
		t.Fatalf("child read: %q %v", buf, err)
	}
	// Child write breaks COW: a new frame appears, parent unchanged.
	if err := c.WriteBytes(v.Start, []byte("child change")); err != nil {
		t.Fatal(err)
	}
	if phys.AllocatedPages() != allocBefore+1 {
		t.Errorf("COW break allocated %d frames, want 1", phys.AllocatedPages()-allocBefore)
	}
	if err := s.ReadBytes(v.Start, buf); err != nil || string(buf) != "shared state" {
		t.Fatalf("parent after child write: %q %v", buf, err)
	}
	// Parent write on the same page: it is now sole owner → reclaim
	// in place, no new frame.
	before := phys.AllocatedPages()
	if err := s.WriteBytes(v.Start, []byte("parent again")); err != nil {
		t.Fatal(err)
	}
	if phys.AllocatedPages() != before {
		t.Errorf("reclaim path allocated a frame")
	}
	c.Destroy()
	s.Destroy()
	if phys.AllocatedPages() != 0 {
		t.Errorf("%d pages leaked", phys.AllocatedPages())
	}
}

func TestCloneStrictCommitFails(t *testing.T) {
	s, _ := newSpace(16, mem.CommitStrict) // 16 MiB RAM/commit
	v, err := s.Map(0x100000, 10<<20, Read|Write, MapOpts{})
	if err != nil {
		t.Fatal(err)
	}
	_ = v
	if _, err := s.CloneCOW(); !errors.Is(err, errno.ENOMEM) {
		t.Fatalf("clone under strict commit: %v, want ENOMEM", err)
	}
}

func TestSharedMapping(t *testing.T) {
	s, _ := newSpace(64, mem.CommitHeuristic)
	v, _ := s.Map(0x100000, mem.PageSize, Read|Write, MapOpts{Shared: true})
	if err := s.WriteBytes(v.Start, []byte("shm")); err != nil {
		t.Fatal(err)
	}
	c, err := s.CloneCOW()
	if err != nil {
		t.Fatal(err)
	}
	// Shared mapping: child writes are visible to the parent.
	if err := c.WriteBytes(v.Start, []byte("SHM")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3)
	if err := s.ReadBytes(v.Start, buf); err != nil || string(buf) != "SHM" {
		t.Errorf("parent sees %q, want SHM (MAP_SHARED survives fork)", buf)
	}
	c.Destroy()
	s.Destroy()
}

func TestHugeVMA(t *testing.T) {
	s, phys := newSpace(64, mem.CommitHeuristic)
	v, err := s.Map(0, 4<<20, Read|Write, MapOpts{Huge: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Touch(v.Start, v.Len(), AccessWrite); err != nil {
		t.Fatal(err)
	}
	if got := s.PageTable().Entries(); got != 2 {
		t.Errorf("entries = %d, want 2 huge", got)
	}
	if phys.AllocatedPages() != 1024 {
		t.Errorf("allocated = %d pages, want 1024", phys.AllocatedPages())
	}
	if err := s.WriteBytes(v.Start+3<<20, []byte("deep")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if err := s.ReadBytes(v.Start+3<<20, buf); err != nil || string(buf) != "deep" {
		t.Errorf("huge rw: %q %v", buf, err)
	}
	s.Destroy()
	if phys.AllocatedPages() != 0 {
		t.Errorf("leak %d pages", phys.AllocatedPages())
	}
}

func TestBackedVMA(t *testing.T) {
	s, _ := newSpace(64, mem.CommitHeuristic)
	content := make([]byte, 2*mem.PageSize)
	copy(content, "file contents here")
	b := sliceBacking(content)
	v, err := s.Map(0x400000, 3*mem.PageSize, Read, MapOpts{Backing: b, BackingOff: 0})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 18)
	if err := s.ReadBytes(v.Start, buf); err != nil || string(buf) != "file contents here" {
		t.Fatalf("backed read: %q %v", buf, err)
	}
	// Past the backing: zero-filled (bss behaviour).
	zz := make([]byte, 8)
	if err := s.ReadBytes(v.Start+2*mem.PageSize+100, zz); err != nil {
		t.Fatal(err)
	}
	for _, c := range zz {
		if c != 0 {
			t.Fatal("bss region not zero")
		}
	}
}

type sliceBacking []byte

func (b sliceBacking) Window(off uint64, n int) []byte {
	if off >= uint64(len(b)) {
		return nil
	}
	end := min(off+uint64(n), uint64(len(b)))
	return b[off:end:end]
}

// TestQuickCloneEquality: any written state is identical in a fresh
// clone, and subsequent parent writes never leak into the child.
func TestQuickCloneEquality(t *testing.T) {
	f := func(writes []struct {
		Off  uint16
		Data uint8
	}) bool {
		s, _ := newSpace(64, mem.CommitHeuristic)
		v, err := s.Map(0x100000, 16*mem.PageSize, Read|Write, MapOpts{})
		if err != nil {
			return false
		}
		for _, w := range writes {
			addr := v.Start + uint64(w.Off)%v.Len()
			if err := s.WriteBytes(addr, []byte{w.Data}); err != nil {
				return false
			}
		}
		c, err := s.CloneCOW()
		if err != nil {
			return false
		}
		defer c.Destroy()
		defer s.Destroy()
		pb := make([]byte, v.Len())
		cb := make([]byte, v.Len())
		if s.ReadBytes(v.Start, pb) != nil || c.ReadBytes(v.Start, cb) != nil {
			return false
		}
		if string(pb) != string(cb) {
			return false
		}
		// Parent diverges; child must not see it.
		if err := s.WriteBytes(v.Start, []byte{0xFF}); err != nil {
			return false
		}
		if c.ReadBytes(v.Start, cb[:1]) != nil {
			return false
		}
		return cb[0] == pb[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestQuickCommitNeverNegative: reserve/unreserve through map/unmap
// stays balanced.
func TestQuickCommitBalance(t *testing.T) {
	f := func(ops []uint8) bool {
		s, phys := newSpace(64, mem.CommitAlways)
		var regions []struct{ start, size uint64 }
		base := uint64(0x100000)
		for _, op := range ops {
			if op%2 == 0 {
				size := (uint64(op%7) + 1) * mem.PageSize
				if _, err := s.Map(base, size, Read|Write, MapOpts{}); err != nil {
					return false
				}
				regions = append(regions, struct{ start, size uint64 }{base, size})
				base += size + mem.PageSize
			} else if len(regions) > 0 {
				r := regions[0]
				regions = regions[1:]
				if err := s.Unmap(r.start, r.size); err != nil {
					return false
				}
			}
		}
		var want uint64
		for _, r := range regions {
			want += r.size
		}
		if s.Committed() != want {
			return false
		}
		s.Destroy()
		return phys.Committed() == 0 && phys.AllocatedPages() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
