package addrspace

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/errno"
	"repro/internal/mem"
)

func TestProtectRevokeWrite(t *testing.T) {
	s, _ := newSpace(64, mem.CommitHeuristic)
	v, err := s.Map(0x100000, 4*mem.PageSize, Read|Write, MapOpts{Name: "w"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteBytes(v.Start, []byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := s.Protect(v.Start, v.Len(), Read); err != nil {
		t.Fatal(err)
	}
	// Reads still work.
	buf := make([]byte, 4)
	if err := s.ReadBytes(v.Start, buf); err != nil || string(buf) != "data" {
		t.Fatalf("read after revoke: %q %v", buf, err)
	}
	// Writes fault.
	if err := s.WriteBytes(v.Start, []byte("x")); !errors.Is(err, errno.EFAULT) {
		t.Fatalf("write after revoke: %v, want EFAULT", err)
	}
	// Also on never-touched pages of the region.
	if err := s.WriteBytes(v.Start+2*mem.PageSize, []byte("x")); !errors.Is(err, errno.EFAULT) {
		t.Fatalf("write to untouched ro page: %v", err)
	}
}

func TestProtectRestoreWrite(t *testing.T) {
	s, phys := newSpace(64, mem.CommitHeuristic)
	v, _ := s.Map(0x100000, 2*mem.PageSize, Read|Write, MapOpts{})
	if err := s.WriteBytes(v.Start, []byte("orig")); err != nil {
		t.Fatal(err)
	}
	before := phys.AllocatedPages()
	if err := s.Protect(v.Start, v.Len(), Read); err != nil {
		t.Fatal(err)
	}
	if err := s.Protect(v.Start, v.Len(), Read|Write); err != nil {
		t.Fatal(err)
	}
	// The sole-owner upgrade path must not copy the frame.
	if err := s.WriteBytes(v.Start, []byte("new!")); err != nil {
		t.Fatalf("write after re-grant: %v", err)
	}
	if phys.AllocatedPages() != before {
		t.Errorf("re-grant write copied a frame")
	}
	buf := make([]byte, 4)
	s.ReadBytes(v.Start, buf)
	if string(buf) != "new!" {
		t.Errorf("content = %q", buf)
	}
}

func TestProtectSplitsVMA(t *testing.T) {
	s, _ := newSpace(64, mem.CommitHeuristic)
	v, _ := s.Map(0x100000, 6*mem.PageSize, Read|Write, MapOpts{Name: "big"})
	// Protect the middle third.
	if err := s.Protect(v.Start+2*mem.PageSize, 2*mem.PageSize, Read); err != nil {
		t.Fatal(err)
	}
	if len(s.VMAs()) != 3 {
		t.Fatalf("VMAs = %d, want 3:\n%s", len(s.VMAs()), s.Dump())
	}
	mid := s.FindVMA(v.Start + 2*mem.PageSize)
	if mid.Prot != Read {
		t.Errorf("mid prot = %v", mid.Prot)
	}
	left := s.FindVMA(v.Start)
	right := s.FindVMA(v.Start + 5*mem.PageSize)
	if left.Prot != Read|Write || right.Prot != Read|Write {
		t.Errorf("outer prots = %v / %v", left.Prot, right.Prot)
	}
	// Writes: outer thirds fine, middle faults.
	if err := s.WriteBytes(v.Start, []byte("x")); err != nil {
		t.Errorf("left write: %v", err)
	}
	if err := s.WriteBytes(v.Start+5*mem.PageSize, []byte("x")); err != nil {
		t.Errorf("right write: %v", err)
	}
	if err := s.WriteBytes(v.Start+3*mem.PageSize, []byte("x")); !errors.Is(err, errno.EFAULT) {
		t.Errorf("mid write: %v", err)
	}
}

func TestProtectCommitAccounting(t *testing.T) {
	s, phys := newSpace(64, mem.CommitStrict)
	v, _ := s.Map(0x100000, 8*mem.PageSize, Read|Write, MapOpts{})
	committed := phys.Committed()
	// RW → R releases commit.
	if err := s.Protect(v.Start, v.Len(), Read); err != nil {
		t.Fatal(err)
	}
	if phys.Committed() != committed-8 {
		t.Errorf("committed after revoke = %d, want %d", phys.Committed(), committed-8)
	}
	// R → RW re-reserves.
	if err := s.Protect(v.Start, v.Len(), Read|Write); err != nil {
		t.Fatal(err)
	}
	if phys.Committed() != committed {
		t.Errorf("committed after re-grant = %d, want %d", phys.Committed(), committed)
	}
	s.Destroy()
	if phys.Committed() != 0 {
		t.Errorf("commit leak: %d", phys.Committed())
	}
}

func TestProtectUnmappedRange(t *testing.T) {
	s, _ := newSpace(64, mem.CommitHeuristic)
	s.Map(0x100000, 2*mem.PageSize, Read|Write, MapOpts{})
	// Range extends past the mapping.
	if err := s.Protect(0x100000, 4*mem.PageSize, Read); !errors.Is(err, errno.ENOMEM) {
		t.Errorf("hole protect: %v, want ENOMEM", err)
	}
	if err := s.Protect(0x100001, mem.PageSize, Read); !errors.Is(err, errno.EINVAL) {
		t.Errorf("unaligned protect: %v, want EINVAL", err)
	}
}

func TestProtectCOWInteraction(t *testing.T) {
	// mprotect(R) on COW pages, then fork-style clone, then restore
	// W in the parent: the child must stay isolated.
	s, _ := newSpace(64, mem.CommitHeuristic)
	v, _ := s.Map(0x100000, mem.PageSize, Read|Write, MapOpts{})
	s.WriteBytes(v.Start, []byte("base"))
	c, err := s.CloneCOW()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Protect(v.Start, v.Len(), Read); err != nil {
		t.Fatal(err)
	}
	if err := s.Protect(v.Start, v.Len(), Read|Write); err != nil {
		t.Fatal(err)
	}
	// Parent writes: must COW-copy (refs==2), not scribble on the
	// shared frame.
	if err := s.WriteBytes(v.Start, []byte("mine")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	c.ReadBytes(v.Start, buf)
	if string(buf) != "base" {
		t.Errorf("child sees %q after parent's post-mprotect write", buf)
	}
	c.Destroy()
	s.Destroy()
}

// spaceState is everything a refused Unmap or Protect must leave as it
// was: the VMAs, RSS and commit of the space, the machine's frames and
// commit, and every page-table entry.
type spaceState struct {
	vmas                  []VMA
	rss, committed        uint64
	allocated, physCommit uint64
	entries               []mapping
}

func stateOf(s *Space) spaceState {
	st := spaceState{
		rss: s.RSS(), committed: s.Committed(),
		allocated: s.phys.AllocatedPages(), physCommit: s.phys.Committed(),
		entries: mappings(s),
	}
	for _, v := range s.VMAs() {
		st.vmas = append(st.vmas, *v)
	}
	return st
}

// TestRefusedCutChangesNothing: Unmap and Protect refuse a range
// before they change anything. A range that runs from a base-page VMA
// into a huge one and ends off the huge VMA's 2 MiB boundary is
// EINVAL, and a Protect whose second reservation fails is ENOMEM; in
// both the VMAs in front of the refusal keep their pages, entries and
// commit.
func TestRefusedCutChangesNothing(t *testing.T) {
	const base = 0x4000_0000
	s, phys := newSpace(64, mem.CommitHeuristic)
	if _, err := s.Map(base, 4<<20, Read|Write, MapOpts{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Map(base+4<<20, 4<<20, Read|Write, MapOpts{Huge: true}); err != nil {
		t.Fatal(err)
	}
	if err := s.Touch(base+1<<20, 4<<20, AccessWrite); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		op   func() error
	}{
		{"Protect", func() error { return s.Protect(base, 5<<20, Read) }},
		{"Protect from the middle", func() error { return s.Protect(base+mem.PageSize, 5<<20, Read|Write|Exec) }},
		{"Unmap", func() error { return s.Unmap(base, 5<<20) }},
		{"Unmap from the middle", func() error { return s.Unmap(base+2<<20, 3<<20+mem.PageSize) }},
	} {
		before := stateOf(s)
		if err := tc.op(); !errors.Is(err, errno.EINVAL) {
			t.Errorf("%s across a huge cut: %v, want EINVAL", tc.name, err)
		}
		if after := stateOf(s); !reflect.DeepEqual(after, before) {
			t.Errorf("%s across a huge cut changed the space:\n%+v\nwant\n%+v", tc.name, after, before)
		}
	}
	if err := s.Unmap(base, 4<<20); err != nil {
		t.Fatal(err)
	}
	s.Destroy()
	if phys.Committed() != 0 || phys.AllocatedPages() != 0 {
		t.Errorf("after Destroy: %d pages committed, %d allocated", phys.Committed(), phys.AllocatedPages())
	}

	// Strict commit on a 64 MiB machine: 40 MiB already reserved, so
	// making a 16 KiB and a 32 MiB read-only VMA writable reserves the
	// first and fails on the second.
	s, phys = newSpace(64, mem.CommitStrict)
	if _, err := s.Map(base, 40<<20, Read|Write, MapOpts{}); err != nil {
		t.Fatal(err)
	}
	ro := uint64(base + 64<<20)
	if _, err := s.Map(ro, 4*mem.PageSize, Read, MapOpts{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Map(ro+4*mem.PageSize, 32<<20, Read, MapOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Touch(ro, 8*mem.PageSize, AccessRead); err != nil {
		t.Fatal(err)
	}
	before := stateOf(s)
	if err := s.Protect(ro, 4*mem.PageSize+32<<20, Read|Write); !errors.Is(err, errno.ENOMEM) {
		t.Errorf("Protect past the commit limit: %v, want ENOMEM", err)
	}
	if after := stateOf(s); !reflect.DeepEqual(after, before) {
		t.Errorf("Protect past the commit limit changed the space:\n%+v\nwant\n%+v", after, before)
	}
	s.Destroy()
	if phys.Committed() != 0 {
		t.Errorf("after Destroy: %d pages committed", phys.Committed())
	}
}
