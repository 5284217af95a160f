package pagetable_test

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cost"
	"repro/internal/mem"
	"repro/internal/pagetable"
)

// The property test drives a Table through random
// map/update/clone/unmap/destroy sequences — including huge-page and
// COW-flag interactions, template snapshots and in-place rewrites —
// and checks every observation against a flat map model of what the
// radix tree should contain, and the host-only state (occupancy
// bitmaps, the leaf cache) against the tree itself. The same
// interpreter backs the fuzz target below, so a crashing byte string
// found by `go test -fuzz=FuzzTableOps` replays here verbatim.
//
// Virtual-address discipline: 4 KiB mappings live under PML4 slots
// 0–3 and huge mappings under slots 8–11, so randomly generated
// operations can never trip the deliberate "4K overlaps huge" panics —
// those are separate, intentional API misuse, pinned by the package's
// own tests.

const (
	maxLiveEntries = 1500
	propRAM        = uint64(2) << 30
)

type propHarness struct {
	t     testing.TB
	phys  *mem.Physical
	tab   *pagetable.Table
	model map[uint64]pagetable.PTE
	vas   []uint64 // live virtual addresses, insertion-ordered

	// The last template snapshot of tab, its memory, and the model as
	// it stood then. tab keeps mapping, updating and unmapping through
	// nodes it shares with the template; none of it may show there.
	tmpl      *pagetable.Table
	tmplPhys  *mem.Physical
	tmplModel map[uint64]pagetable.PTE
}

func newPropHarness(t testing.TB) *propHarness {
	meter := cost.NewMeter(cost.DefaultModel())
	phys := mem.NewPhysical(meter, propRAM, 0, mem.CommitAlways)
	return &propHarness{
		t:     t,
		phys:  phys,
		tab:   pagetable.New(phys, meter),
		model: map[uint64]pagetable.PTE{},
	}
}

// va4k builds a base-page address under PML4 slots 0–3 spread across
// many page-table nodes; vaHuge builds a 2 MiB-aligned address under
// slots 8–11.
func va4k(sel byte, idx uint16) uint64 {
	return uint64(sel%4)<<39 + uint64(idx)*uint64(mem.PageSize)
}

func vaHuge(sel byte, idx uint16) uint64 {
	return uint64(8+sel%4)<<39 + uint64(idx%512)*uint64(mem.HugeSize)
}

// randFlags keeps the frame bits clear and avoids the contradictory
// Shared+COW combination the kernel never produces.
func randFlags(b byte) pagetable.PTE {
	var f pagetable.PTE
	if b&1 != 0 {
		f |= pagetable.FlagWritable
	}
	if b&2 != 0 {
		f |= pagetable.FlagExec
	}
	if b&4 != 0 {
		f |= pagetable.FlagDirty
	}
	if b&8 != 0 {
		f |= pagetable.FlagAccessed
	}
	if b&16 != 0 {
		f |= pagetable.FlagShared
	} else if b&32 != 0 {
		f |= pagetable.FlagCOW
	}
	return f
}

func (h *propHarness) track(va uint64, e pagetable.PTE) {
	if _, ok := h.model[va]; !ok {
		h.vas = append(h.vas, va)
	}
	h.model[va] = e
}

func (h *propHarness) untrack(va uint64) {
	delete(h.model, va)
	for i, v := range h.vas {
		if v == va {
			h.vas[i] = h.vas[len(h.vas)-1]
			h.vas = h.vas[:len(h.vas)-1]
			return
		}
	}
}

// pick returns a live va, deterministically from r.
func (h *propHarness) pick(r uint16) (uint64, bool) {
	if len(h.vas) == 0 {
		return 0, false
	}
	return h.vas[int(r)%len(h.vas)], true
}

// unmapAt removes va from table and model, dropping the frame ref, and
// checks the table handed back exactly the modelled entry.
func (h *propHarness) unmapAt(va uint64) {
	want := h.model[va]
	got, ok := h.tab.Unmap(va)
	if !ok || got != want {
		h.t.Fatalf("Unmap(%#x) = %v, %v; model holds %v", va, got, ok, want)
	}
	h.phys.DecRef(got.Frame())
	h.untrack(va)
}

// checkLookup looks va up in h.tab and compares it with the model.
func (h *propHarness) checkLookup(va uint64) {
	got, ok := h.tab.Lookup(va)
	want, wok := h.model[va]
	if ok != wok || (ok && got != want) {
		h.t.Fatalf("Lookup(%#x) = %v, %v; model %v, %v", va, got, ok, want, wok)
	}
}

// verify checks tab's host-only state, then walks the whole tree and
// compares it, entry for entry, against the flat model.
func (h *propHarness) verify(tag string, tab *pagetable.Table, model map[uint64]pagetable.PTE) {
	// First, while the leaf cache is still the one the last op left.
	if err := pagetable.CheckHostState(tab); err != nil {
		h.t.Fatalf("%s: %v", tag, err)
	}
	seen := map[uint64]pagetable.PTE{}
	tab.Visit(func(va uint64, e pagetable.PTE) pagetable.PTE {
		seen[va] = e
		return e
	})
	if len(seen) != len(model) {
		h.t.Fatalf("%s: table has %d entries, model %d", tag, len(seen), len(model))
	}
	hugeCount := 0
	// In va order, not map order: lookups move the TLB and the leaf
	// cache, and a replayed input must move them the same way.
	for _, va := range slices.Sorted(maps.Keys(model)) {
		want := model[va]
		got, ok := seen[va]
		if !ok {
			h.t.Fatalf("%s: model entry %#x missing from table", tag, va)
		}
		if got != want|pagetable.FlagPresent {
			h.t.Fatalf("%s: entry %#x = %v, model %v", tag, va, got, want|pagetable.FlagPresent)
		}
		if want.Huge() {
			hugeCount++
		}
		// The point lookup must agree with the walk (TLB coherence).
		le, ok := tab.Lookup(va)
		if !ok || le != got {
			h.t.Fatalf("%s: Lookup(%#x) = %v, %v; walk saw %v", tag, va, le, ok, got)
		}
	}
	if tab.Entries() != len(model) || tab.HugeEntries() != hugeCount {
		h.t.Fatalf("%s: counters Entries=%d HugeEntries=%d, model %d/%d",
			tag, tab.Entries(), tab.HugeEntries(), len(model), hugeCount)
	}
}

// verifyTemplate holds the last template, and a fresh stamp of it, to
// the model taken with it.
func (h *propHarness) verifyTemplate(tag string) {
	if h.tmpl == nil {
		return
	}
	h.verify(tag+" template", h.tmpl, h.tmplModel)
	meter := cost.NewMeter(cost.DefaultModel())
	stamp := h.tmpl.CloneHost(h.tmplPhys.CloneHost(meter, false), meter, false)
	h.verify(tag+" stamp", stamp, h.tmplModel)
}

// modelPages counts the 4 KiB pages a model maps, a huge entry
// counting 512.
func modelPages(model map[uint64]pagetable.PTE) uint64 {
	var n uint64
	for _, e := range model {
		if e.Huge() {
			n += mem.FramesPerHuge
		} else {
			n++
		}
	}
	return n
}

// destroy tears tab down, through Destroy(nil) when viaNil and through
// a DecRef callback otherwise, and checks the pages it reports.
func (h *propHarness) destroy(tag string, tab *pagetable.Table, viaNil bool, want uint64) {
	var got uint64
	if viaNil {
		got = tab.Destroy(nil)
	} else {
		got = tab.Destroy(func(va uint64, e pagetable.PTE) {
			h.phys.DecRef(e.Frame())
		})
	}
	if got != want {
		h.t.Fatalf("%s: Destroy(nil=%v) reported %d pages, model %d", tag, viaNil, got, want)
	}
}

// cloneModels derives the post-CloneCOW parent and child models: both
// sides of a private mapping lose write permission and gain COW (if it
// was ever writable); shared mappings pass through untouched.
func cloneModels(parent map[uint64]pagetable.PTE) (newParent, child map[uint64]pagetable.PTE) {
	newParent = map[uint64]pagetable.PTE{}
	child = map[uint64]pagetable.PTE{}
	for va, e := range parent {
		if e.Shared() {
			newParent[va] = e
			child[va] = e
			continue
		}
		shared := e.Without(pagetable.FlagWritable)
		if e.Writable() || e.COW() {
			shared = shared.With(pagetable.FlagCOW)
		}
		newParent[va] = shared
		child[va] = shared
	}
	return newParent, child
}

// step consumes up to 4 bytes of ops and applies one operation.
func (h *propHarness) step(op, b1 byte, r uint16) {
	switch op % 10 {
	case 0, 1: // map a 4 KiB page
		if len(h.model) >= maxLiveEntries {
			return
		}
		va := va4k(b1, r)
		if _, ok := h.model[va]; ok {
			h.unmapAt(va) // replacing in place would leak the old frame
		}
		f, err := h.phys.Alloc()
		if err != nil {
			return // RAM exhausted; other ops continue
		}
		e := pagetable.Make(f, randFlags(op))
		h.tab.Map(va, e)
		h.track(va, e|pagetable.FlagPresent)
	case 2: // map a 2 MiB page
		if len(h.model) >= maxLiveEntries {
			return
		}
		va := vaHuge(b1, r)
		if _, ok := h.model[va]; ok {
			h.unmapAt(va)
		}
		f, err := h.phys.AllocHuge()
		if err != nil {
			return
		}
		e := pagetable.Make(f, randFlags(op))
		h.tab.MapHuge(va, e)
		h.track(va, e|pagetable.FlagPresent|pagetable.FlagHuge)
	case 3: // unmap a live entry
		if va, ok := h.pick(r); ok {
			h.unmapAt(va)
		}
	case 4: // rewrite a live entry's flags, keeping its frame
		va, ok := h.pick(r)
		if !ok {
			return
		}
		if b1&64 != 0 {
			h.checkLookup(va) // a COW break reads the entry first
		}
		old := h.model[va]
		e := pagetable.Make(old.Frame(), randFlags(b1))
		h.tab.Update(va, e)
		want := e | pagetable.FlagPresent
		if old.Huge() {
			want |= pagetable.FlagHuge
		}
		h.model[va] = want
	case 5: // point lookup, hit or miss
		var va uint64
		if b1&1 == 0 {
			va, _ = h.pick(r)
		} else {
			va = va4k(b1, r)
		}
		h.checkLookup(va)
	case 6: // COW clone: check both tables, then tear the child down
		newParent, childModel := cloneModels(h.model)
		child := h.tab.CloneCOW()
		h.model = newParent
		h.verify("post-clone parent", h.tab, newParent)
		h.verify("clone child", child, childModel)
		h.verifyTemplate("post-clone")
		h.destroy("clone child", child, b1&1 == 0, modelPages(childModel))
	case 7: // eager clone: fresh frames for private entries
		child, err := h.tab.CloneEager()
		seen := map[uint64]pagetable.PTE{}
		child.Visit(func(va uint64, e pagetable.PTE) pagetable.PTE {
			seen[va] = e
			return e
		})
		if err != nil {
			// Mid-clone ENOMEM: the partial table must still tear
			// down cleanly without corrupting refcounts.
			h.destroy("partial eager clone", child, b1&1 == 0, modelPages(seen))
			return
		}
		if len(seen) != len(h.model) {
			h.t.Fatalf("eager clone: %d entries, model %d", len(seen), len(h.model))
		}
		for va, want := range h.model {
			got, ok := seen[va]
			if !ok || got.Flags() != want.Flags() {
				h.t.Fatalf("eager clone entry %#x = %v (ok=%v), want flags of %v", va, got, ok, want)
			}
			if !want.Shared() && got.Frame() == want.Frame() {
				h.t.Fatalf("eager clone shares private frame at %#x", va)
			}
			if want.Shared() && got.Frame() != want.Frame() {
				h.t.Fatalf("eager clone copied shared frame at %#x", va)
			}
		}
		h.destroy("eager clone", child, b1&1 == 0, modelPages(h.model))
	case 8: // snapshot into a template, as a fleet's template cache does
		h.verifyTemplate("replaced")
		meter := cost.NewMeter(cost.DefaultModel())
		h.tmplPhys = h.phys.CloneHost(meter, true)
		h.tmpl = h.tab.CloneHost(h.tmplPhys, meter, true)
		h.tmplModel = maps.Clone(h.model)
	case 9: // flip FlagDirty on every k-th entry, as CapturePages' rearm rewrites in place
		va0, ok := h.pick(r)
		if ok {
			h.checkLookup(va0) // a fault just read it: its leaf is cached
		}
		k, n := 1+int(b1%4), 0
		h.tab.Visit(func(va uint64, e pagetable.PTE) pagetable.PTE {
			if n++; n%k != 0 {
				return e
			}
			h.model[va] = e ^ pagetable.FlagDirty
			return h.model[va]
		})
		if err := pagetable.CheckHostState(h.tab); err != nil {
			h.t.Fatalf("after Visit: %v", err)
		}
		// A rewrite flushed the TLB, so these walk, va0's first.
		if ok {
			h.checkLookup(va0)
		}
		for _, va := range h.vas {
			h.checkLookup(va)
		}
	}
}

// runOps interprets ops 4 bytes at a time, then destroys the table
// with Destroy(nil) and checks that every physical frame came back.
func runOps(t testing.TB, ops []byte) {
	h := newPropHarness(t)
	for i := 0; i+4 <= len(ops); i += 4 {
		h.step(ops[i], ops[i+1], uint16(ops[i+2])|uint16(ops[i+3])<<8)
	}
	h.verify("final", h.tab, h.model)
	h.verifyTemplate("final")
	h.destroy("final", h.tab, true, modelPages(h.model))
	if got := h.phys.AllocatedPages(); got != 0 {
		t.Fatalf("frame leak: %d pages still allocated after Destroy", got)
	}
}

// TestTableProperties runs the interpreter over seeded random op
// streams — deterministic, so failures reproduce.
func TestTableProperties(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 6000)
		rng.Read(ops)
		t.Run(string(rune('A'+seed)), func(t *testing.T) {
			runOps(t, ops)
		})
	}
}

// FuzzTableOps lets the fuzzer hunt for byte strings the random seeds
// miss; the corpus replays as ordinary tests.
func FuzzTableOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0, 1, 2, 3, 2, 1, 0, 0, 6, 0, 0, 0, 3, 0, 0, 0})
	rng := rand.New(rand.NewSource(99))
	seed := make([]byte, 256)
	rng.Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1<<16 {
			ops = ops[:1<<16]
		}
		runOps(t, ops)
	})
}
