package mem

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/cost"
	"repro/internal/errno"
)

func newPhys(ram uint64, pol CommitPolicy) *Physical {
	return NewPhysical(cost.NewMeter(cost.DefaultModel()), ram, pol)
}

func TestAllocFreeRoundtrip(t *testing.T) {
	p := newPhys(1<<20, CommitHeuristic) // 256 frames
	if got := p.TotalPages(); got != 256 {
		t.Fatalf("TotalPages = %d, want 256", got)
	}
	var frames []FrameID
	for i := 0; i < 256; i++ {
		f, err := p.Alloc()
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		frames = append(frames, f)
	}
	if _, err := p.Alloc(); !errors.Is(err, errno.ENOMEM) {
		t.Fatalf("257th alloc: err = %v, want ENOMEM", err)
	}
	if p.FreePages() != 0 {
		t.Errorf("FreePages = %d, want 0", p.FreePages())
	}
	for _, f := range frames {
		if !p.DecRef(f) {
			t.Errorf("DecRef(%d) did not free", f)
		}
	}
	if p.FreePages() != 256 || p.AllocatedPages() != 0 {
		t.Errorf("after free: free=%d allocated=%d", p.FreePages(), p.AllocatedPages())
	}
}

// TestGrowFrames: GrowFrames makes room for exactly the frames the free
// list cannot supply, capped at RAM, and moves nothing an allocation
// returns or charges. The allocations after it then never grow the
// table again.
func TestGrowFrames(t *testing.T) {
	grown, plain := newPhys(4<<20, CommitHeuristic), newPhys(4<<20, CommitHeuristic) // 1,024 frames
	alloc := func(n int) {
		t.Helper()
		for range n {
			f, err := grown.Alloc()
			g, gerr := plain.Alloc()
			if f != g || err != gerr || grown.meter.Now() != plain.meter.Now() {
				t.Fatalf("after GrowFrames, Alloc = %v, %v at %v; without it %v, %v at %v",
					f, err, grown.meter.Now(), g, gerr, plain.meter.Now())
			}
		}
	}
	alloc(10)
	for _, p := range []*Physical{grown, plain} {
		for f := FrameID(2); f < 6; f++ {
			p.DecRef(f)
		}
		if _, err := p.AllocHuge(); err != nil {
			t.Fatal(err)
		}
	}
	// 6 base frames and a huge one are live; 4 base frames are free.
	before := &grown.frames[0]
	grown.GrowFrames(4)
	if &grown.frames[0] != before {
		t.Error("GrowFrames(4) with 4 free frames grew the table")
	}
	grown.GrowFrames(20)
	if got := cap(grown.frames); got < 26 || len(grown.frames) != 10 {
		t.Fatalf("GrowFrames(20) with 4 free frames: len %d cap %d, want len 10 and room for 26", len(grown.frames), got)
	}
	before = &grown.frames[0]
	alloc(20)
	if &grown.frames[0] != before {
		t.Error("an allocation after GrowFrames reallocated the frame table")
	}
	grown.GrowFrames(1000)
	if got := uint64(cap(grown.frames)); got < grown.TotalPages() || got > grown.TotalPages()+64 {
		t.Errorf("GrowFrames past RAM: room for %d frames, RAM holds %d", got, grown.TotalPages())
	}
	alloc(300)
}

func TestRefcountSharing(t *testing.T) {
	p := newPhys(1<<20, CommitHeuristic)
	f, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	p.IncRef(f)
	p.IncRef(f)
	if got := p.Refs(f); got != 3 {
		t.Fatalf("Refs = %d, want 3", got)
	}
	if p.DecRef(f) {
		t.Error("freed at refs=2")
	}
	if p.DecRef(f) {
		t.Error("freed at refs=1")
	}
	if !p.DecRef(f) {
		t.Error("not freed at refs=0")
	}
}

func TestLazyMaterialisation(t *testing.T) {
	p := newPhys(1<<20, CommitHeuristic)
	f, _ := p.Alloc()
	if p.Materialised(f) {
		t.Error("fresh frame materialised")
	}
	buf := make([]byte, 16)
	p.Read(f, 0, buf)
	for _, b := range buf {
		if b != 0 {
			t.Fatal("fresh frame not zero")
		}
	}
	// All-zero writes stay lazy.
	p.Write(f, 100, make([]byte, 64))
	if p.Materialised(f) {
		t.Error("all-zero write materialised the frame")
	}
	// A real write materialises.
	p.Write(f, 100, []byte{1, 2, 3})
	if !p.Materialised(f) {
		t.Error("nonzero write did not materialise")
	}
	p.Read(f, 99, buf[:5])
	want := []byte{0, 1, 2, 3, 0}
	for i, b := range want {
		if buf[i] != b {
			t.Errorf("read[%d] = %d, want %d", i, buf[i], b)
		}
	}

	// Whole-frame writes: only a non-zero byte materialises, even one
	// in the last chunk the zero check compares.
	for _, tc := range []struct {
		name string
		huge bool
		last byte
		want bool
	}{
		{"zero-page-stays-lazy", false, 0, false},
		{"last-byte-page-materialises", false, 1, true},
		{"last-byte-huge-materialises", true, 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newPhys(4<<20, CommitHeuristic)
			alloc := p.Alloc
			if tc.huge {
				alloc = p.AllocHuge
			}
			f, err := alloc()
			if err != nil {
				t.Fatal(err)
			}
			data := make([]byte, f.Size())
			data[len(data)-1] = tc.last
			p.Write(f, 0, data)
			if got := p.Materialised(f); got != tc.want {
				t.Fatalf("materialised = %v after a %d-byte write ending in %d, want %v", got, len(data), tc.last, tc.want)
			}
			got := make([]byte, f.Size())
			p.Read(f, 0, got)
			if !bytes.Equal(got, data) {
				t.Error("frame does not read back what was written")
			}
		})
	}
}

func TestCopyFrame(t *testing.T) {
	p := newPhys(1<<20, CommitHeuristic)
	src, _ := p.Alloc()
	p.Write(src, 0, []byte("payload"))
	dst, err := p.CopyFrame(src)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 7)
	p.Read(dst, 0, buf)
	if string(buf) != "payload" {
		t.Errorf("copy = %q", buf)
	}
	// Copies are independent.
	p.Write(dst, 0, []byte("CHANGED"))
	p.Read(src, 0, buf)
	if string(buf) != "payload" {
		t.Errorf("source mutated: %q", buf)
	}
	// Lazy source copies stay lazy.
	lz, _ := p.Alloc()
	cp, _ := p.CopyFrame(lz)
	if p.Materialised(cp) {
		t.Error("copy of lazy frame materialised")
	}
}

func TestHugeFrames(t *testing.T) {
	p := newPhys(8<<20, CommitHeuristic) // 2048 pages
	h, err := p.AllocHuge()
	if err != nil {
		t.Fatal(err)
	}
	if !h.IsHuge() || h.Size() != HugeSize || h.Pages() != 512 {
		t.Fatalf("huge frame geometry wrong: %v %d %d", h.IsHuge(), h.Size(), h.Pages())
	}
	if got := p.AllocatedPages(); got != 512 {
		t.Errorf("AllocatedPages = %d, want 512", got)
	}
	p.Write(h, HugeSize-4, []byte{9, 9, 9, 9})
	buf := make([]byte, 4)
	p.Read(h, HugeSize-4, buf)
	if buf[0] != 9 {
		t.Error("huge frame write/read failed")
	}
	// Copy of a huge frame is huge.
	cp, err := p.CopyFrame(h)
	if err != nil {
		t.Fatal(err)
	}
	if !cp.IsHuge() {
		t.Error("copy of huge frame not huge")
	}
	p.DecRef(h)
	p.DecRef(cp)
	if p.AllocatedPages() != 0 {
		t.Errorf("leak: %d pages", p.AllocatedPages())
	}
	// Budget: 2048 pages = at most 4 huge frames.
	var hs []FrameID
	for {
		f, err := p.AllocHuge()
		if err != nil {
			break
		}
		hs = append(hs, f)
	}
	if len(hs) != 4 {
		t.Errorf("allocated %d huge frames from 8MiB, want 4", len(hs))
	}
}

func TestCommitPolicies(t *testing.T) {
	// Strict: limit = RAM.
	p := newPhys(2<<20, CommitStrict) // 512 pages
	if err := p.Reserve(512); err != nil {
		t.Fatalf("reserve to limit: %v", err)
	}
	if err := p.Reserve(1); !errors.Is(err, errno.ENOMEM) {
		t.Fatalf("over-reserve: %v, want ENOMEM", err)
	}
	p.Unreserve(512)

	// Heuristic: cumulative overcommit is allowed; only a single
	// request larger than the limit fails.
	h := newPhys(1<<20, CommitHeuristic) // limit 256 pages
	for i := 0; i < 3; i++ {
		if err := h.Reserve(200); err != nil {
			t.Fatalf("heuristic reserve %d: %v", i, err)
		}
	}
	if h.Committed() != 600 {
		t.Errorf("heuristic committed = %d, want 600 (overcommitted)", h.Committed())
	}
	if err := h.Reserve(10_000); !errors.Is(err, errno.ENOMEM) {
		t.Fatalf("heuristic absurd reserve: %v, want ENOMEM", err)
	}

	// Always: anything goes.
	a := newPhys(1<<20, CommitAlways)
	if err := a.Reserve(1 << 40); err != nil {
		t.Fatalf("always reserve: %v", err)
	}
}

func TestZeroFrame(t *testing.T) {
	p := newPhys(1<<20, CommitHeuristic)
	f, _ := p.Alloc()
	p.Write(f, 0, []byte{1})
	p.ZeroFrame(f)
	if p.Materialised(f) {
		t.Error("zeroed frame still materialised")
	}
}

// TestQuickAllocConservation: under any interleaving of allocs and
// frees, allocated+free == total and no frame is handed out twice.
func TestQuickAllocConservation(t *testing.T) {
	f := func(ops []uint8) bool {
		p := newPhys(256<<12, CommitHeuristic) // 256 frames
		live := map[FrameID]bool{}
		var order []FrameID
		for _, op := range ops {
			if op%3 != 0 && len(order) > 0 {
				// free the oldest
				id := order[0]
				order = order[1:]
				delete(live, id)
				p.DecRef(id)
			} else {
				id, err := p.Alloc()
				if err != nil {
					continue
				}
				if live[id] {
					return false // double allocation
				}
				live[id] = true
				order = append(order, id)
			}
			if p.AllocatedPages()+p.FreePages() != p.TotalPages() {
				return false
			}
			if p.AllocatedPages() != uint64(len(live)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickWriteReadRoundtrip: whatever is written at any offset reads
// back, and neighbouring bytes are untouched.
func TestQuickWriteReadRoundtrip(t *testing.T) {
	p := newPhys(1<<20, CommitHeuristic)
	f, _ := p.Alloc()
	shadow := make([]byte, PageSize)
	fn := func(off uint16, data []byte) bool {
		o := int(off) % PageSize
		n := len(data)
		if o+n > PageSize {
			n = PageSize - o
		}
		p.Write(f, o, data[:n])
		copy(shadow[o:], data[:n])
		got := make([]byte, PageSize)
		p.Read(f, 0, got)
		for i := range shadow {
			if got[i] != shadow[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestBatchRefsMatchPerFrameLoop: IncRefs and DecRefs are exactly a
// loop of IncRef and DecRef — same counts, same frees charged, and the
// same free-list and data-slot order, so every later Alloc hands out
// the same id and every later write the same slot. The frames the
// batch frees hold bytes of every kind: owned, adopted from a file and
// shared with a clone, which must still read its own after the source
// frees them; a huge frame is freed in mid-batch.
func TestBatchRefsMatchPerFrameLoop(t *testing.T) {
	file := bytes.Repeat([]byte("file page "), 410)
	build := func() (*Physical, *Physical, []FrameID, FrameID) {
		p := newPhys(4<<20, CommitHeuristic)
		a := make([]FrameID, 8)
		for i := range a {
			a[i], _ = p.Alloc()
		}
		h, err := p.AllocHuge()
		if err != nil {
			t.Fatal(err)
		}
		p.IncRef(a[1])
		p.IncRef(a[1])
		p.IncRef(a[3])
		// a5's bytes are shared with a clone, a0, a6 and h own theirs,
		// and a2 adopts a file page.
		p.Write(a[5], 100, []byte("cloned"))
		clone := p.CloneHost(cost.NewMeter(cost.DefaultModel()))
		p.Write(a[0], 0, []byte("owned a0"))
		p.Write(a[6], 7, []byte("owned a6"))
		p.Write(h, 0, []byte("huge"))
		p.Adopt(a[2], file[:PageSize])
		return p, clone, a, h
	}
	batch, clone, a, h := build()
	loop, _, _, _ := build()

	// share bumps a1 twice, a3 and h once; drop then frees a0, a2, a5,
	// a6 and h on their last reference, h between a5 and a2, leaves a1
	// shared, and walks the repeated a3 down through the in-line path
	// to its free.
	share := []FrameID{a[1], a[3], a[1], h}
	drop := []FrameID{a[0], a[1], a[3], a[3], a[3], a[5], h, h, a[2], a[6]}
	batch.IncRefs(share)
	batch.DecRefs(drop)
	for _, f := range share {
		loop.IncRef(f)
	}
	for _, f := range drop {
		loop.DecRef(f)
	}

	for _, f := range []FrameID{a[1], a[4], a[7]} {
		if got, want := batch.Refs(f), loop.Refs(f); got != want {
			t.Errorf("Refs(%d) = %d, per-frame loop %d", f, got, want)
		}
	}
	if got := batch.Refs(a[1]); got != 4 {
		t.Errorf("Refs(a1) = %d, want 4 (still shared)", got)
	}
	if got, want := batch.AllocatedPages(), loop.AllocatedPages(); got != want || got != 3 {
		t.Errorf("AllocatedPages = %d, per-frame loop %d, want 3", got, want)
	}
	if got, want := books(batch), books(loop); got != want {
		t.Errorf("books after the batch %s, per-frame loop %s", got, want)
	}
	for i := 0; i < 8; i++ {
		got, err1 := batch.Alloc()
		want, err2 := loop.Alloc()
		if err1 != nil || err2 != nil || got != want {
			t.Fatalf("Alloc #%d = %d (%v), per-frame loop %d (%v)", i, got, err1, want, err2)
		}
		batch.Write(got, 0, []byte{0xff})
		loop.Write(want, 0, []byte{0xff})
		if gs, ws := batch.slot(got).next, loop.slot(want).next; gs != ws {
			t.Fatalf("Alloc #%d's write took data slot %d, per-frame loop %d", i, gs, ws)
		}
	}
	if got, want := books(batch), books(loop); got != want {
		t.Errorf("books after the Allocs %s, per-frame loop %s", got, want)
	}
	if hb, _ := batch.AllocHuge(); hb != h {
		t.Errorf("AllocHuge = %d, want the freed huge frame %d", hb, h)
	}
	if got := readFrame(clone, a[5], 106)[100:]; string(got) != "cloned" {
		t.Errorf("the clone reads %q where the source freed its shared bytes, want %q", got, "cloned")
	}

	// A free id panics in the batch exactly as in DecRef / IncRef, and
	// leaves the books the loop leaves: the in-line frees before it
	// (a2 and a5, both holding bytes) are booked.
	bad, _, _, _ := build()
	badLoop, _, _, _ := build()
	bad.DecRef(a[0])
	badLoop.DecRef(a[0])
	fs := []FrameID{a[2], a[5], a[0], a[6]}
	got := recoverPanic(func() { bad.DecRefs(fs) })
	want := recoverPanic(func() {
		for _, f := range fs {
			badLoop.DecRef(f)
		}
	})
	if got == nil || got != want {
		t.Errorf("DecRefs on a free frame panicked %v, the DecRef loop %v", got, want)
	}
	if g, w := books(bad), books(badLoop); g != w {
		t.Errorf("books after the panic %s, per-frame loop %s", g, w)
	}
	if g := recoverPanic(func() { bad.IncRefs([]FrameID{a[0]}) }); g == nil || g != want {
		t.Errorf("IncRefs on a free frame panicked %v, DecRef %v", g, want)
	}
}

// books is what a run of frees leaves for later ops to read: the pages
// handed out, the clock, the heads of both free lists and the stack of
// empty data slots.
func books(p *Physical) string {
	return fmt.Sprint("allocated ", p.allocatedPages, ", clock ", p.meter.Now(),
		", free head ", p.freeHead, ", huge free ", p.hfree, ", free slots ", p.freeSlots)
}

func recoverPanic(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}
