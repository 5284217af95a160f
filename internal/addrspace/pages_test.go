package addrspace

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/errno"
	"repro/internal/mem"
	"repro/internal/pagetable"
)

// TestCapturePagesDirtyTracking walks the pre-copy contract: a full
// rearmed capture leaves the space clean, writes re-fault through the
// sole-owner upgrade and re-dirty exactly the written pages, and the
// next dirty-only capture harvests precisely those.
func TestCapturePagesDirtyTracking(t *testing.T) {
	s, _ := newSpace(64, mem.CommitHeuristic)
	const base, npages = uint64(0x10000), 4
	if _, err := s.Map(base, npages*mem.PageSize, Read|Write, MapOpts{Name: "heap"}); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < npages; i++ {
		if err := s.WriteBytes(base+i*mem.PageSize, []byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.DirtyPages(); got != npages {
		t.Fatalf("DirtyPages = %d, want %d", got, npages)
	}

	full := s.CapturePages(nil, false, true)
	if len(full) != npages {
		t.Fatalf("full capture = %d records, want %d", len(full), npages)
	}
	for i, r := range full {
		if r.VA != base+uint64(i)*mem.PageSize {
			t.Errorf("record %d va = %#x", i, r.VA)
		}
		if r.Data == nil || r.Data[0] != byte('a'+i) {
			t.Errorf("record %d data = %v", i, r.Data)
		}
	}
	if got := s.DirtyPages(); got != 0 {
		t.Fatalf("DirtyPages after rearm = %d, want 0", got)
	}
	if residue := s.CapturePages(nil, true, true); len(residue) != 0 {
		t.Fatalf("dirty-only capture after rearm = %d records, want 0", len(residue))
	}

	// Mutate one page: the write must re-fault (the rearm dropped
	// FlagWritable) and mark exactly that page dirty again.
	if err := s.WriteBytes(base+2*mem.PageSize, []byte{'X'}); err != nil {
		t.Fatal(err)
	}
	round := s.CapturePages(nil, true, true)
	if len(round) != 1 || round[0].VA != base+2*mem.PageSize {
		t.Fatalf("round capture = %+v, want the single mutated page", round)
	}
	if round[0].Data[0] != 'X' {
		t.Errorf("round data = %q, want 'X'", round[0].Data[0])
	}
	// And reads of the untouched pages still work post-rearm.
	buf := make([]byte, 1)
	if err := s.ReadBytes(base, buf); err != nil || buf[0] != 'a' {
		t.Errorf("read after rearm = %v %q", err, buf)
	}
}

// TestCapturePagesChargesUnmaterialised: Touch-warmed heaps never
// materialise host frames, but the simulated machine still moved the
// bytes — capture must price every page or migration of warmed heaps
// would look free.
func TestCapturePagesChargesUnmaterialised(t *testing.T) {
	s, _ := newSpace(64, mem.CommitHeuristic)
	const base, npages = uint64(0x40000), 8
	if _, err := s.Map(base, npages*mem.PageSize, Read|Write, MapOpts{Name: "warm"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Touch(base, npages*mem.PageSize, AccessWrite); err != nil {
		t.Fatal(err)
	}
	before := s.meter.PageCopies
	t0 := s.meter.MaxClock()
	recs := s.CapturePages(nil, false, false)
	if len(recs) != npages {
		t.Fatalf("captured %d records, want %d", len(recs), npages)
	}
	for _, r := range recs {
		if r.Data != nil {
			t.Errorf("va %#x: unmaterialised page captured host bytes", r.VA)
		}
	}
	if got := s.meter.PageCopies - before; got != npages {
		t.Errorf("PageCopies += %d, want %d (unmaterialised pages must still be priced)", got, npages)
	}
	if s.meter.MaxClock() == t0 {
		t.Error("capture advanced no virtual time")
	}
}

// TestInstallPageRoundTrip rebuilds a space from captured records and
// checks bytes, flags, and RSS accounting survive the trip.
func TestInstallPageRoundTrip(t *testing.T) {
	src, _ := newSpace(64, mem.CommitHeuristic)
	const base, npages = uint64(0x200000), 3
	if _, err := src.Map(base, npages*mem.PageSize, Read|Write, MapOpts{Name: "heap"}); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xAB}, mem.PageSize)
	for i := uint64(0); i < npages; i++ {
		payload[0] = byte(i)
		if err := src.WriteBytes(base+i*mem.PageSize, payload); err != nil {
			t.Fatal(err)
		}
	}
	recs := src.CapturePages(nil, false, false)

	dst, _ := newSpace(64, mem.CommitHeuristic)
	if _, err := dst.Map(base, npages*mem.PageSize, Read|Write, MapOpts{Name: "heap"}); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := dst.InstallPage(r); err != nil {
			t.Fatalf("install %#x: %v", r.VA, err)
		}
		if r.Flags&pagetable.FlagCOW != 0 {
			t.Errorf("record %#x carries FlagCOW", r.VA)
		}
	}
	if dst.RSS() != src.RSS() {
		t.Errorf("dst RSS = %d, src = %d", dst.RSS(), src.RSS())
	}
	got := make([]byte, mem.PageSize)
	for i := uint64(0); i < npages; i++ {
		if err := dst.ReadBytes(base+i*mem.PageSize, got); err != nil {
			t.Fatal(err)
		}
		payload[0] = byte(i)
		if !bytes.Equal(got, payload) {
			t.Errorf("page %d contents diverged after install", i)
		}
	}
	// Writes to restored pages work (restored spaces own every frame).
	if err := dst.WriteBytes(base, []byte{1}); err != nil {
		t.Errorf("write to restored page: %v", err)
	}
	// Installing outside any VMA refuses rather than corrupting.
	if err := dst.InstallPage(PageRecord{VA: 0x9000000}); err == nil {
		t.Error("InstallPage outside a VMA succeeded")
	}
}

// TestInstallPageRejectsMisfitRecords: a record that cannot be a page
// of its VMA fails with EINVAL before InstallPage unmaps anything, so
// the page already resident there survives and RSS does not move.
func TestInstallPageRejectsMisfitRecords(t *testing.T) {
	s, phys := newSpace(64, mem.CommitHeuristic)
	const small, huge = uint64(0x200000), uint64(0x400000)
	if _, err := s.Map(small, 2*mem.PageSize, Read|Write, MapOpts{Name: "heap"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Map(huge, mem.HugeSize, Read|Write, MapOpts{Name: "huge", Huge: true}); err != nil {
		t.Fatal(err)
	}
	if err := s.Touch(small, 2*mem.PageSize, AccessWrite); err != nil {
		t.Fatal(err)
	}
	if err := s.Touch(huge, mem.HugeSize, AccessWrite); err != nil {
		t.Fatal(err)
	}
	rss, frames := s.RSS(), phys.AllocatedPages()
	w := pagetable.FlagWritable
	for _, r := range []PageRecord{
		{VA: small + 8, Flags: w},
		{VA: small, Flags: w | pagetable.FlagHuge},
		{VA: small, Flags: w, Data: make([]byte, mem.PageSize+1)},
		{VA: small, Flags: w, Data: []byte{1}},
		{VA: huge, Flags: w},
		{VA: huge + mem.PageSize, Flags: w | pagetable.FlagHuge},
		{VA: huge, Flags: w | pagetable.FlagHuge, Data: make([]byte, mem.PageSize)},
	} {
		if err := s.InstallPage(r); !errors.Is(err, errno.EINVAL) {
			t.Errorf("InstallPage(va %#x flags %v data %d) = %v, want EINVAL", r.VA, r.Flags, len(r.Data), err)
		}
	}
	if s.RSS() != rss || phys.AllocatedPages() != frames {
		t.Errorf("RSS %d, frames %d after rejected installs; want %d, %d", s.RSS(), phys.AllocatedPages(), rss, frames)
	}
	for _, va := range []uint64{small, huge} {
		if _, ok := s.PageTable().Lookup(va); !ok {
			t.Errorf("resident page %#x was unmapped by a rejected install", va)
		}
	}
}
