package pagetable_test

import (
	"errors"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cost"
	"repro/internal/mem"
	"repro/internal/pagetable"
)

// The property test drives one machine's page tables — a table and up
// to three live COW children of it, grandchildren included — through
// random map/update/unmap/visit/lookup ops on any live table, forks,
// child destroys, eager clones, template snapshots, in-place rewrites
// and runs of demand faults filled in one pass. It checks every observation against a flat map model per
// table and an eager reference count per frame (the number of live
// tables that map it), and the host-only state (occupancy bitmaps, the
// leaf cache, fork-shared leaves and their link counts) against the
// trees. The same interpreter backs the fuzz target below, so a
// crashing byte string found by `go test -fuzz=FuzzTableOps` replays
// here verbatim.
//
// Virtual-address discipline: 4 KiB mappings live under PML4 slots
// 0–3 and huge mappings under slots 8–11, so randomly generated
// operations can never trip the deliberate "4K overlaps huge" panics —
// those are separate, intentional API misuse, pinned by the package's
// own tests.

const (
	maxLiveEntries = 1500
	maxChildren    = 3
	propRAM        = uint64(2) << 30
)

// liveTable is one live table of the machine and the model of what it
// maps.
type liveTable struct {
	tab   *pagetable.Table
	model map[uint64]pagetable.PTE
	vas   []uint64 // live virtual addresses, insertion-ordered
}

type propHarness struct {
	t     testing.TB
	meter *cost.Meter
	phys  *mem.Physical

	// tabs[0] is the table the run starts with; the rest are its live
	// COW descendants, at most maxChildren of them.
	tabs []*liveTable
	// refs is the eager reference count of every mapped frame: the
	// number of live tables that map it.
	refs map[mem.FrameID]int32

	// The last template snapshot of a live table, its memory, and the
	// table's model as it stood then. The table keeps mapping, updating,
	// unmapping and forking through nodes it shares with the template;
	// none of it may show there.
	tmpl      *pagetable.Table
	tmplPhys  *mem.Physical
	tmplModel map[uint64]pagetable.PTE
}

func newPropHarness(t testing.TB) *propHarness {
	meter := cost.NewMeter(cost.DefaultModel())
	phys := mem.NewPhysical(meter, propRAM, mem.CommitAlways)
	return &propHarness{
		t:     t,
		meter: meter,
		phys:  phys,
		tabs:  []*liveTable{{tab: pagetable.New(phys, meter), model: map[uint64]pagetable.PTE{}}},
		refs:  map[mem.FrameID]int32{},
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

func (lt *liveTable) track(va uint64, e pagetable.PTE) {
	if _, ok := lt.model[va]; !ok {
		lt.vas = append(lt.vas, va)
	}
	lt.model[va] = e
}

func (lt *liveTable) untrack(va uint64) {
	delete(lt.model, va)
	for i, v := range lt.vas {
		if v == va {
			lt.vas[i] = lt.vas[len(lt.vas)-1]
			lt.vas = lt.vas[:len(lt.vas)-1]
			return
		}
	}
}

// pick returns a live va, deterministically from r.
func (lt *liveTable) pick(r uint16) (uint64, bool) {
	if len(lt.vas) == 0 {
		return 0, false
	}
	return lt.vas[int(r)%len(lt.vas)], true
}

// tables lists every live table of the machine.
func (h *propHarness) tables() []*pagetable.Table {
	out := make([]*pagetable.Table, len(h.tabs))
	for i, lt := range h.tabs {
		out[i] = lt.tab
	}
	return out
}

// unref drops one modelled reference on f and reports whether it was
// the last.
func (h *propHarness) unref(f mem.FrameID) bool {
	h.refs[f]--
	if h.refs[f] > 0 {
		return false
	}
	delete(h.refs, f)
	return true
}

// unmapAt removes va from a table and its model, dropping the frame
// ref, and checks the table handed back exactly the modelled entry.
func (h *propHarness) unmapAt(lt *liveTable, va uint64) {
	want := lt.model[va]
	got, ok := lt.tab.Unmap(va)
	if !ok || got != want {
		h.t.Fatalf("Unmap(%#x) = %v, %v; model holds %v", va, got, ok, want)
	}
	h.phys.DecRef(got.Frame())
	lt.untrack(va)
	h.unref(got.Frame())
}

// checkCharge holds the virtual time an op charged since t0 to what
// the eager structure would have charged for it.
func (h *propHarness) checkCharge(tag string, t0, want cost.Ticks) {
	if got := h.meter.Now() - t0; got != want {
		h.t.Fatalf("%s charged %d ticks, the eager model %d", tag, got, want)
	}
}

// checkLookup looks va up in a table and compares it with the model.
func (h *propHarness) checkLookup(lt *liveTable, va uint64) {
	got, ok := lt.tab.Lookup(va)
	want, wok := lt.model[va]
	if ok != wok || (ok && got != want) {
		h.t.Fatalf("Lookup(%#x) = %v, %v; model %v, %v", va, got, ok, want, wok)
	}
}

// check runs between ops and moves no host state: the host-only state
// of every live table, each table's entries against its model, and
// every mapped frame's reference count against the model's.
func (h *propHarness) check(tag string) {
	if err := pagetable.CheckHostState(h.tables()...); err != nil {
		h.t.Fatalf("%s: %v", tag, err)
	}
	for i, lt := range h.tabs {
		got := pagetable.Mappings(lt.tab)
		if !maps.Equal(got, lt.model) {
			h.t.Fatalf("%s: table %d maps %d entries, model %d, or an entry differs", tag, i, len(got), len(lt.model))
		}
		if lt.tab.Entries() != len(lt.model) {
			h.t.Fatalf("%s: table %d Entries=%d, model %d", tag, i, lt.tab.Entries(), len(lt.model))
		}
	}
	refs := pagetable.LogicalRefs(h.phys, h.tables()...)
	var pages uint64
	for f, want := range h.refs {
		got, lazy := refs(f)
		if got != want {
			h.t.Fatalf("%s: frame %d has %d references counting deferred ones, model %d", tag, f, got, want)
		}
		if !lazy && h.phys.Refs(f) != want {
			h.t.Fatalf("%s: frame %d has %d references and no fork-shared leaf maps it, model %d", tag, f, h.phys.Refs(f), want)
		}
		pages += f.Pages()
	}
	if got := h.phys.AllocatedPages(); got != pages {
		h.t.Fatalf("%s: %d pages allocated, the model's frames hold %d", tag, got, pages)
	}
}

// verify walks a whole table with Visit and compares it, entry for
// entry, against the flat model, then looks every entry up.
func (h *propHarness) verify(tag string, tab *pagetable.Table, model map[uint64]pagetable.PTE) {
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
	meter := cost.NewMeter(cost.DefaultModel())
	stamp := h.tmpl.CloneHost(h.tmplPhys.CloneHost(meter), meter, false)
	for _, tab := range []*pagetable.Table{h.tmpl, stamp} {
		if err := pagetable.CheckHostState(tab); err != nil {
			h.t.Fatalf("%s template: %v", tag, err)
		}
	}
	h.verify(tag+" template", h.tmpl, h.tmplModel)
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

// destroyLive destroys a live table and holds the frames it freed to
// the model's eager teardown: entries drop their references in
// ascending va order, and a frame whose count reaches zero goes onto
// its free list then. So the next allocations must hand exactly those
// frames back, newest first; they are then freed again in their first
// order, which leaves the free lists as the teardown left them.
func (h *propHarness) destroyLive(tag string, lt *liveTable, viaNil bool) {
	var freed, freedHuge []mem.FrameID
	for _, va := range slices.Sorted(maps.Keys(lt.model)) {
		if f := lt.model[va].Frame(); h.unref(f) {
			if f.IsHuge() {
				freedHuge = append(freedHuge, f)
			} else {
				freed = append(freed, f)
			}
		}
	}
	m, t0, nodes := h.meter.Model, h.meter.Now(), cost.Ticks(lt.tab.Nodes())
	h.destroy(tag, lt.tab, viaNil, modelPages(lt.model))
	h.checkCharge(tag+" destroy", t0, (1+nodes)*m.PTNodeFree+cost.Ticks(len(freed)+len(freedHuge))*m.FrameFree)
	for i := len(freed) - 1; i >= 0; i-- {
		if f, err := h.phys.Alloc(); err != nil || f != freed[i] {
			h.t.Fatalf("%s: Alloc after destroy = %d, %v; the model freed %d last", tag, f, err, freed[i])
		}
	}
	for i := len(freedHuge) - 1; i >= 0; i-- {
		if f, err := h.phys.AllocHuge(); err != nil || f != freedHuge[i] {
			h.t.Fatalf("%s: AllocHuge after destroy = %d, %v; the model freed %d last", tag, f, err, freedHuge[i])
		}
	}
	for _, f := range append(freed, freedHuge...) {
		h.phys.DecRef(f)
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

// step consumes 4 bytes of ops and applies one operation to the live
// table op/12 selects.
func (h *propHarness) step(op, b1 byte, r uint16) {
	lt := h.tabs[int(op/12)%len(h.tabs)]
	switch op % 12 {
	case 0, 1: // map a 4 KiB page
		if len(lt.model) >= maxLiveEntries {
			return
		}
		va := va4k(b1, r)
		if _, ok := lt.model[va]; ok {
			h.unmapAt(lt, va) // replacing in place would leak the old frame
		}
		f, err := h.phys.Alloc()
		if err != nil {
			return // RAM exhausted; other ops continue
		}
		e := pagetable.Make(f, randFlags(op))
		lt.tab.Map(va, e)
		lt.track(va, e|pagetable.FlagPresent)
		h.refs[f] = 1
	case 2: // map a 2 MiB page
		if len(lt.model) >= maxLiveEntries {
			return
		}
		va := vaHuge(b1, r)
		if _, ok := lt.model[va]; ok {
			h.unmapAt(lt, va)
		}
		f, err := h.phys.AllocHuge()
		if err != nil {
			return
		}
		e := pagetable.Make(f, randFlags(op))
		lt.tab.MapHuge(va, e)
		lt.track(va, e|pagetable.FlagPresent|pagetable.FlagHuge)
		h.refs[f] = 1
	case 3: // unmap a live entry
		if va, ok := lt.pick(r); ok {
			h.unmapAt(lt, va)
		}
	case 4: // rewrite a live entry's flags, keeping its frame
		va, ok := lt.pick(r)
		if !ok {
			return
		}
		if b1&64 != 0 {
			h.checkLookup(lt, va) // a COW break reads the entry first
		}
		old := lt.model[va]
		e := pagetable.Make(old.Frame(), randFlags(b1))
		t0, charge := h.meter.Now(), h.meter.Model.PTEWrite
		lt.tab.Update(va, e)
		want := e | pagetable.FlagPresent
		if old.Huge() {
			want |= pagetable.FlagHuge
			charge += h.meter.Model.TLBFlush
		}
		h.checkCharge("Update", t0, charge)
		lt.model[va] = want
	case 5: // point lookup, hit or miss
		var va uint64
		if b1&1 == 0 {
			va, _ = lt.pick(r)
		} else {
			va = va4k(b1, r)
		}
		h.checkLookup(lt, va)
	case 6: // COW fork: keep the child live, or tear it down at once when enough are
		newParent, childModel := cloneModels(lt.model)
		// The eager clone's bill: a root and a mirror of every node, one
		// write per child entry and per parent downgrade, two flushes.
		writes := len(lt.model)
		for va, e := range lt.model {
			if newParent[va] != e {
				writes++
			}
		}
		m, t0, copies, nodes := h.meter.Model, h.meter.Now(), h.meter.PTECopies, lt.tab.Nodes()
		child := &liveTable{tab: lt.tab.CloneCOW(), model: childModel, vas: slices.Clone(lt.vas)}
		h.checkCharge("CloneCOW", t0, cost.Ticks(1+nodes)*m.PTNodeAlloc+cost.Ticks(writes)*m.PTEWrite+2*m.TLBFlush)
		if got := h.meter.PTECopies - copies; got != uint64(len(lt.model)) || child.tab.Nodes() != nodes {
			h.t.Fatalf("CloneCOW copied %d entries into %d nodes; the parent has %d in %d", got, child.tab.Nodes(), len(lt.model), nodes)
		}
		lt.model = newParent
		for _, e := range childModel {
			h.refs[e.Frame()]++
		}
		h.tabs = append(h.tabs, child)
		h.check("post-clone")
		h.verify("post-clone parent", lt.tab, newParent)
		h.verify("clone child", child.tab, childModel)
		h.verifyTemplate("post-clone")
		if len(h.tabs) > 1+maxChildren {
			h.tabs = h.tabs[:len(h.tabs)-1]
			h.destroyLive("clone child", child, b1&1 == 0)
		}
	case 7: // eager clone: fresh frames for private entries
		child, err := lt.tab.CloneEager()
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
		if len(seen) != len(lt.model) {
			h.t.Fatalf("eager clone: %d entries, model %d", len(seen), len(lt.model))
		}
		for va, want := range lt.model {
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
		h.destroy("eager clone", child, b1&1 == 0, modelPages(lt.model))
	case 8: // snapshot into a template, as a fleet's template cache does
		h.verifyTemplate("replaced")
		// A machine snapshot first privatizes every table's
		// fork-shared leaves (kernel.Kernel.CloneInto).
		for _, l := range h.tabs {
			l.tab.PrivatizeAll()
		}
		meter := cost.NewMeter(cost.DefaultModel())
		h.tmplPhys = h.phys.CloneHost(meter)
		h.tmpl = lt.tab.CloneHost(h.tmplPhys, meter, true)
		h.tmplModel = maps.Clone(lt.model)
	case 9: // flip FlagDirty on every k-th entry, as CapturePages' rearm rewrites in place
		va0, ok := lt.pick(r)
		if ok {
			h.checkLookup(lt, va0) // a fault just read it: its leaf is cached
		}
		k, n := 1+int(b1%4), 0
		lt.tab.Visit(func(va uint64, e pagetable.PTE) pagetable.PTE {
			if n++; n%k != 0 {
				return e
			}
			lt.model[va] = e ^ pagetable.FlagDirty
			return lt.model[va]
		})
		if err := pagetable.CheckHostState(h.tables()...); err != nil {
			h.t.Fatalf("after Visit: %v", err)
		}
		// A rewrite flushed the TLB, so these walk, va0's first.
		if ok {
			h.checkLookup(lt, va0)
		}
		for _, va := range lt.vas {
			h.checkLookup(lt, va)
		}
	case 10: // destroy a live child
		if len(h.tabs) > 1 {
			i := 1 + int(r)%(len(h.tabs)-1)
			child := h.tabs[i]
			h.tabs = slices.Delete(h.tabs, i, i+1)
			h.destroyLive("live child", child, b1&1 == 0)
		}
	case 11: // a run of demand faults, filled in one pass
		h.fill(lt, op, b1, r)
	}
}

var errFill = errors.New("fault callback failed")

// fill runs Fill from an absent page, as a fault path does after its
// Lookup found the page absent, over a run of 1 to 32 pages in the
// page's leaf: at a random page, or half the time a few pages below a
// live base page, so the run meets it. The fault callback fails at its
// k-th call, k = op/12 - 15 (none when not positive), or when RAM runs
// out. Each page Fill fills is charged its probe (not the first's: the
// caller's Lookup made it), the handler's walk, the callback's frame
// allocation, the entry write and the retried access's walk, and any
// node the path lacked when the first entry went in. Fill must stop at
// the first present page, its probe leaving it in the TLB, or at the
// failing page, leaving it absent; every page it filled must be in the
// TLB.
func (h *propHarness) fill(lt *liveTable, op, b1 byte, r uint16) {
	va := va4k(b1, r)
	if live, ok := lt.pick(r); ok && b1&1 != 0 && !lt.model[live].Huge() {
		va = live - min(live, uint64(1+(b1>>3)%8)*mem.PageSize)
	}
	if _, ok := lt.model[va]; ok || len(lt.model)+32 > maxLiveEntries {
		return
	}
	end := min(va+uint64(1+(b1>>2)%32)*mem.PageSize, (va|(mem.HugeSize-1))+1)
	stop := end
	for p := va; p < end; p += mem.PageSize {
		if _, ok := lt.model[p]; ok {
			stop = p
			break
		}
	}
	// Half the time, the stop page is in the TLB already and its probe
	// charges nothing; otherwise it may charge a walk.
	if stop < end && b1&2 != 0 {
		h.checkLookup(lt, stop)
	}
	h.checkLookup(lt, va)

	m, t0, nodes := h.meter.Model, h.meter.Now(), lt.tab.Nodes()
	failAt := int(op/12) - 15
	var filled []uint64
	calls := 0
	next, err := lt.tab.Fill(va, end, func(p uint64) (pagetable.PTE, error) {
		if want := va + uint64(calls)*mem.PageSize; p != want {
			h.t.Fatalf("Fill asked for %#x, the run's next absent page is %#x", p, want)
		}
		// The clock here is what an injector stamps the frame
		// allocation with: this page's walks and every earlier page's
		// charges, the nodes the first page's path lacked among them.
		c := cost.Ticks(calls)
		want := (1+2*c)*m.PTWalk + c*(m.FrameAlloc+m.PTEWrite+m.PTWalk)
		if calls > 0 {
			want += cost.Ticks(lt.tab.Nodes()-nodes) * m.PTNodeAlloc
		}
		if got := h.meter.Now() - t0; got != want {
			h.t.Fatalf("Fill's callback for %#x ran at %d ticks, the per-page path's frame allocation at %d", p, got, want)
		}
		calls++
		if calls == failAt {
			return 0, errFill
		}
		f, err := h.phys.Alloc()
		if err != nil {
			return 0, err
		}
		e := pagetable.Make(f, randFlags(byte(r)))
		lt.track(p, e|pagetable.FlagPresent)
		h.refs[f] = 1
		filled = append(filled, p)
		return e, nil
	})
	failed := len(filled) < calls
	if wantNext := va + uint64(len(filled))*mem.PageSize; failed && (err == nil || next != wantNext) {
		h.t.Fatalf("Fill's callback failed at %#x; Fill returned %#x, %v", wantNext, next, err)
	}
	if !failed && (err != nil || next != stop) {
		h.t.Fatalf("Fill(%#x, %#x) = %#x, %v; the first present page is %#x", va, end, next, err, stop)
	}
	// Every call's handler walk and every probe after the first page's,
	// the stop page's included, whose walk a TLB hit saves.
	probes := cost.Ticks(calls - 1)
	stopWalk := !failed && next < end
	if stopWalk {
		probes++
	}
	want := (probes+cost.Ticks(calls))*m.PTWalk + cost.Ticks(len(filled))*(m.FrameAlloc+m.PTEWrite+m.PTWalk) +
		cost.Ticks(lt.tab.Nodes()-nodes)*m.PTNodeAlloc
	got := h.meter.Now() - t0
	if stopWalk && (b1&2 != 0 || got+m.PTWalk == want) {
		want -= m.PTWalk // the stop page was in the TLB
	}
	if got != want {
		h.t.Fatalf("Fill charged %d ticks, the per-page path %d", got, want)
	}
	for _, p := range append(filled, next) {
		if p == end {
			continue
		}
		t1 := h.meter.Now()
		h.checkLookup(lt, p)
		if _, ok := lt.model[p]; ok && h.meter.Now() != t1 {
			h.t.Fatalf("Lookup(%#x) after Fill charged %d: Fill left it out of the TLB", p, h.meter.Now()-t1)
		}
	}
}

// runOps interprets ops 4 bytes at a time, checking the machine after
// each, then destroys every table — the children newest first, then
// the first table with Destroy(nil) — and checks that every physical
// frame came back.
func runOps(t testing.TB, ops []byte) {
	h := newPropHarness(t)
	for i := 0; i+4 <= len(ops); i += 4 {
		h.step(ops[i], ops[i+1], uint16(ops[i+2])|uint16(ops[i+3])<<8)
		h.check("after op")
	}
	for _, lt := range h.tabs {
		h.verify("final", lt.tab, lt.model)
	}
	h.verifyTemplate("final")
	for len(h.tabs) > 0 {
		lt := h.tabs[len(h.tabs)-1]
		h.tabs = h.tabs[:len(h.tabs)-1]
		h.destroyLive("final", lt, len(h.tabs) == 0)
		h.check("after final destroy")
	}
	if got := h.phys.AllocatedPages(); got != 0 {
		t.Fatalf("frame leak: %d pages still allocated after Destroy", got)
	}
}

// TestTableProperties runs the interpreter over seeded random op
// streams — deterministic, so failures reproduce. Each stream has a
// machine of its own, so they run in parallel.
func TestTableProperties(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 6000)
		rng.Read(ops)
		t.Run(string(rune('A'+seed)), func(t *testing.T) {
			t.Parallel()
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
