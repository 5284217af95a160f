package pagetable

import (
	"testing"
	"testing/quick"

	"repro/internal/cost"
	"repro/internal/mem"
)

func newTable() (*Table, *mem.Physical) {
	meter := cost.NewMeter(cost.DefaultModel())
	phys := mem.NewPhysical(meter, 64<<20, mem.CommitHeuristic)
	return New(phys, meter), phys
}

func TestMapLookupUnmap(t *testing.T) {
	tbl, phys := newTable()
	f, _ := phys.Alloc()
	va := uint64(0x400000)
	tbl.Map(va, Make(f, FlagWritable))
	e, ok := tbl.Lookup(va)
	if !ok {
		t.Fatal("lookup after map failed")
	}
	if e.Frame() != f || !e.Writable() || !e.Present() {
		t.Errorf("entry = %v", e)
	}
	if tbl.Entries() != 1 {
		t.Errorf("Entries = %d", tbl.Entries())
	}
	// Lookups inside the same page resolve; the next page does not.
	if _, ok := tbl.Lookup(va + 4095); !ok {
		t.Error("intra-page lookup failed")
	}
	if _, ok := tbl.Lookup(va + 4096); ok {
		t.Error("next-page lookup should miss")
	}
	old, ok := tbl.Unmap(va)
	if !ok || old.Frame() != f {
		t.Fatalf("unmap: %v %v", old, ok)
	}
	if _, ok := tbl.Lookup(va); ok {
		t.Error("lookup after unmap should miss")
	}
	if tbl.Entries() != 0 {
		t.Errorf("Entries = %d after unmap", tbl.Entries())
	}
}

func TestNodesAccounting(t *testing.T) {
	tbl, phys := newTable()
	f, _ := phys.Alloc()
	// Two pages in the same leaf: 3 interior nodes + 1 leaf.
	tbl.Map(0x1000, Make(f, 0))
	before := tbl.Nodes()
	phys.IncRef(f)
	tbl.Map(0x2000, Make(f, 0))
	if tbl.Nodes() != before {
		t.Errorf("same-leaf map allocated %d nodes", tbl.Nodes()-before)
	}
	// A distant page allocates a fresh path (3 new nodes below root).
	phys.IncRef(f)
	tbl.Map(0x7f00_0000_0000, Make(f, 0))
	if got := tbl.Nodes() - before; got != 3 {
		t.Errorf("distant map allocated %d nodes, want 3", got)
	}
}

func TestHugeMapping(t *testing.T) {
	tbl, phys := newTable()
	h, err := phys.AllocHuge()
	if err != nil {
		t.Fatal(err)
	}
	va := uint64(0x4000_0000) // 2MiB aligned
	tbl.MapHuge(va, Make(h, FlagWritable))
	if tbl.Entries() != 1 || tbl.HugeEntries() != 1 {
		t.Errorf("entries=%d huge=%d", tbl.Entries(), tbl.HugeEntries())
	}
	// Any address inside the 2MiB region translates.
	for _, off := range []uint64{0, 4096, mem.HugeSize - 1} {
		e, ok := tbl.Lookup(va + off)
		if !ok || !e.Huge() || e.Frame() != h {
			t.Errorf("lookup at +%#x: %v %v", off, e, ok)
		}
	}
	old, ok := tbl.Unmap(va)
	if !ok || !old.Huge() {
		t.Fatalf("huge unmap failed")
	}
	if tbl.HugeEntries() != 0 {
		t.Error("huge entry count leak")
	}
}

func TestCloneCOWSemantics(t *testing.T) {
	tbl, phys := newTable()
	fw, _ := phys.Alloc() // writable private
	fr, _ := phys.Alloc() // read-only private (text)
	fs, _ := phys.Alloc() // shared
	tbl.Map(0x1000, Make(fw, FlagWritable))
	tbl.Map(0x2000, Make(fr, FlagExec))
	tbl.Map(0x3000, Make(fs, FlagWritable|FlagShared))

	child := tbl.CloneCOW()
	if child.Entries() != 3 {
		t.Fatalf("child entries = %d", child.Entries())
	}
	// All frames now have two references; the child's are deferred in
	// the leaf both tables link.
	refs := LogicalRefs(phys, tbl, child)
	for _, f := range []mem.FrameID{fw, fr, fs} {
		if n, _ := refs(f); n != 2 {
			t.Errorf("frame %d refs = %d, want 2", f, n)
		}
	}
	// Writable private page: read-only + COW on both sides.
	for _, side := range []*Table{tbl, child} {
		e, _ := side.Lookup(0x1000)
		if e.Writable() || !e.COW() {
			t.Errorf("private page after clone: %v", e)
		}
		// Read-only page: stays read-only, no COW flag needed for
		// never-writable pages.
		e2, _ := side.Lookup(0x2000)
		if e2.Writable() || e2.COW() {
			t.Errorf("text page after clone: %v", e2)
		}
		// Shared page keeps write permission.
		e3, _ := side.Lookup(0x3000)
		if !e3.Writable() || e3.COW() || !e3.Shared() {
			t.Errorf("shared page after clone: %v", e3)
		}
	}
	// Once the child's leaf is its own, it holds its references.
	child.Privatize(0x1000)
	for _, f := range []mem.FrameID{fw, fr, fs} {
		if phys.Refs(f) != 2 {
			t.Errorf("frame %d refs = %d after privatizing, want 2", f, phys.Refs(f))
		}
	}
	child.Destroy(func(_ uint64, e PTE) { phys.DecRef(e.Frame()) })
	for _, f := range []mem.FrameID{fw, fr, fs} {
		if phys.Refs(f) != 1 {
			t.Errorf("frame %d refs = %d after child destroy", f, phys.Refs(f))
		}
	}
}

func TestCloneEagerCopies(t *testing.T) {
	tbl, phys := newTable()
	f, _ := phys.Alloc()
	phys.Write(f, 0, []byte("orig"))
	tbl.Map(0x1000, Make(f, FlagWritable))
	child, err := tbl.CloneEager()
	if err != nil {
		t.Fatal(err)
	}
	e, ok := child.Lookup(0x1000)
	if !ok {
		t.Fatal("child missing mapping")
	}
	if e.Frame() == f {
		t.Fatal("eager clone shared the frame")
	}
	if !e.Writable() {
		t.Error("eager clone lost write permission")
	}
	buf := make([]byte, 4)
	phys.Read(e.Frame(), 0, buf)
	if string(buf) != "orig" {
		t.Errorf("eager copy content = %q", buf)
	}
	if phys.Refs(f) != 1 {
		t.Errorf("source frame refs = %d, want 1", phys.Refs(f))
	}
}

func TestVisitOrderAndRewrite(t *testing.T) {
	tbl, phys := newTable()
	addrs := []uint64{0x9000, 0x1000, 0x4000_0000_0000, 0x5000}
	for _, va := range addrs {
		f, _ := phys.Alloc()
		tbl.Map(va, Make(f, FlagWritable))
	}
	var seen []uint64
	tbl.Visit(func(va uint64, e PTE) PTE {
		seen = append(seen, va)
		return e.With(FlagAccessed)
	})
	want := []uint64{0x1000, 0x5000, 0x9000, 0x4000_0000_0000}
	if len(seen) != len(want) {
		t.Fatalf("visited %d, want %d", len(seen), len(want))
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Errorf("visit[%d] = %#x, want %#x", i, seen[i], want[i])
		}
	}
	e, _ := tbl.Lookup(0x1000)
	if e&FlagAccessed == 0 {
		t.Error("rewrite did not stick")
	}
}

func TestDestroyReleasesEverything(t *testing.T) {
	tbl, phys := newTable()
	for i := uint64(0); i < 100; i++ {
		f, _ := phys.Alloc()
		tbl.Map(0x1000*(i+1), Make(f, FlagWritable))
	}
	n := 0
	pages := tbl.Destroy(func(_ uint64, e PTE) {
		phys.DecRef(e.Frame())
		n++
	})
	if n != 100 || pages != 100 {
		t.Errorf("released %d, Destroy reported %d pages; want 100", n, pages)
	}
	if phys.AllocatedPages() != 0 {
		t.Errorf("%d pages leaked", phys.AllocatedPages())
	}
}

func TestUpdatePreservesHuge(t *testing.T) {
	tbl, phys := newTable()
	h, _ := phys.AllocHuge()
	tbl.MapHuge(0x4000_0000, Make(h, FlagWritable))
	tbl.Update(0x4000_0000+8192, Make(h, FlagWritable|FlagDirty))
	e, ok := tbl.Lookup(0x4000_0000)
	if !ok || !e.Huge() || e&FlagDirty == 0 {
		t.Errorf("update lost huge bit or dirty: %v", e)
	}
}

// TestQuickShadowModel: a random sequence of map/unmap/update agrees
// with a plain map shadow.
func TestQuickShadowModel(t *testing.T) {
	type op struct {
		Kind uint8
		Slot uint16
	}
	f := func(ops []op) bool {
		tbl, phys := newTable()
		frame, _ := phys.Alloc()
		shadow := map[uint64]PTE{}
		for _, o := range ops {
			va := (uint64(o.Slot%1024) + 1) * 0x1000 * 7 // spread across leaves
			switch o.Kind % 3 {
			case 0:
				e := Make(frame, FlagWritable)
				if _, exists := shadow[va]; !exists {
					phys.IncRef(frame)
				}
				tbl.Map(va, e)
				shadow[va] = e | FlagPresent
			case 1:
				old, ok := tbl.Unmap(va)
				_, sok := shadow[va]
				if ok != sok {
					return false
				}
				if ok {
					phys.DecRef(old.Frame())
					delete(shadow, va)
				}
			case 2:
				if _, ok := shadow[va]; ok {
					e := Make(frame, FlagWritable|FlagDirty)
					tbl.Update(va, e)
					shadow[va] = e | FlagPresent
				}
			}
			if tbl.Entries() != len(shadow) {
				return false
			}
		}
		for va, want := range shadow {
			got, ok := tbl.Lookup(va)
			if !ok || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickCloneRefcounts: after CloneCOW, every mapped frame's
// reference count equals the number of tables mapping it — counting
// the references deferred in shared leaves, and in Physical.Refs alone
// once the child's leaves are its own.
func TestQuickCloneRefcounts(t *testing.T) {
	f := func(slots []uint16) bool {
		tbl, phys := newTable()
		seen := map[uint64]bool{}
		for _, s := range slots {
			va := (uint64(s%512) + 1) * 0x1000
			if seen[va] {
				continue
			}
			seen[va] = true
			fr, err := phys.Alloc()
			if err != nil {
				return true // machine full; skip
			}
			tbl.Map(va, Make(fr, FlagWritable))
		}
		child := tbl.CloneCOW()
		ok := true
		refs := LogicalRefs(phys, tbl, child)
		tbl.Visit(func(_ uint64, e PTE) PTE {
			if n, _ := refs(e.Frame()); n != 2 {
				ok = false
			}
			return e
		})
		child.PrivatizeAll()
		tbl.Visit(func(_ uint64, e PTE) PTE {
			if phys.Refs(e.Frame()) != 2 {
				ok = false
			}
			return e
		})
		child.Destroy(func(_ uint64, e PTE) { phys.DecRef(e.Frame()) })
		tbl.Visit(func(_ uint64, e PTE) PTE {
			if phys.Refs(e.Frame()) != 1 {
				ok = false
			}
			return e
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
