// Package pagetable implements x86-64-style 4-level radix page tables
// for the simulator: 48-bit virtual addresses, 4 KiB base pages, and
// 2 MiB huge mappings installed one level up.
//
// This is the data structure whose duplication dominates the cost of
// fork() in "A fork() in the road": CloneCOW charges a mirror node for
// every page-table page and one entry write per mapped page, so its
// virtual-time cost is Θ(mapped pages) — exactly the linear growth the
// paper's Figure 1 shows.
//
// The host, by contrast, visits only populated state: each node keeps
// an occupancy bitmap, so clone, teardown and Visit skip empty slots;
// each table caches the last leaf it walked, so the lookups and writes
// of one fault share a single host walk, and Fill faults in a leaf's
// run of absent pages in one pass; and CloneCOW links the parent's
// leaves into the child instead of copying them, so a fork and exec's
// teardown of the copy cost the host O(nodes), not O(entries): Destroy
// reads its page count from the table's counters and drops a linked
// leaf by its link alone. Host memory is kept small too: a node carries
// only the one 4 KiB array its level uses (entries at a leaf, children
// above it), leaves and interior nodes come from pools of their own,
// and a TLB entry is a virtual page number and a PTE, the PTE's present
// bit serving as the valid bit. None of it moves a charge — every walk,
// entry write and node is priced as before, and the virtual cost is
// still Θ(mapped pages).
//
// Frame references are held by leaves. A leaf holds one reference per
// present entry however many tables link it; a leaf that CloneCOW
// linked into more than one table (fork-shared) counts the extra
// tables in forks and defers their references. The first table to
// write through such a leaf gets a private copy and takes the deferred
// references with it, so once the leaf a table faults on is private,
// every count the kernel reads equals the eager one: each table's
// present entry holds one reference. Map and MapHuge take over the
// caller's reference, and Fill that of each entry its fault callback
// returns. CloneCOW and CloneEager take their own for each entry they
// install (CloneCOW's deferred). Unmap hands the entry's reference back
// to the caller. Destroy(nil) drops every remaining reference;
// Destroy(release) hands each one to release instead, taking a
// fork-shared leaf's deferred references first.
package pagetable

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/cost"
	"repro/internal/mem"
)

// PTE is a page-table entry: flag bits in the low 12 bits and the
// frame id shifted into the address bits.
type PTE uint64

// PTE flag bits.
const (
	FlagPresent  PTE = 1 << 0
	FlagWritable PTE = 1 << 1
	FlagExec     PTE = 1 << 2
	// FlagCOW marks a private page temporarily made read-only
	// because parent and child share the frame after fork. A write
	// fault on a COW page copies the frame (or reclaims it if the
	// refcount dropped back to 1).
	FlagCOW PTE = 1 << 3
	// FlagHuge marks a 2 MiB mapping installed at level 1 (the PD).
	FlagHuge     PTE = 1 << 4
	FlagDirty    PTE = 1 << 5
	FlagAccessed PTE = 1 << 6
	// FlagShared marks a MAP_SHARED page: fork shares the frame
	// without COW.
	FlagShared PTE = 1 << 7

	frameShift = 12
)

// Make builds a PTE from a frame and flags.
func Make(f mem.FrameID, flags PTE) PTE {
	return PTE(uint64(f))<<frameShift | (flags & 0xfff)
}

// Frame extracts the frame id.
func (e PTE) Frame() mem.FrameID { return mem.FrameID(e >> frameShift) }

// Flags extracts the flag bits.
func (e PTE) Flags() PTE { return e & 0xfff }

// Present reports whether the entry maps a frame.
func (e PTE) Present() bool { return e&FlagPresent != 0 }

// Writable reports the hardware-writable bit.
func (e PTE) Writable() bool { return e&FlagWritable != 0 }

// COW reports the software copy-on-write bit.
func (e PTE) COW() bool { return e&FlagCOW != 0 }

// Huge reports whether this is a 2 MiB mapping.
func (e PTE) Huge() bool { return e&FlagHuge != 0 }

// Shared reports whether this page is MAP_SHARED.
func (e PTE) Shared() bool { return e&FlagShared != 0 }

// With returns e with the given flags set.
func (e PTE) With(flags PTE) PTE { return e | flags }

// Without returns e with the given flags cleared.
func (e PTE) Without(flags PTE) PTE { return e &^ flags }

func (e PTE) String() string {
	if !e.Present() {
		return "<absent>"
	}
	s := fmt.Sprintf("frame=%d", e.Frame())
	for _, f := range []struct {
		bit  PTE
		name string
	}{
		{FlagWritable, "W"}, {FlagExec, "X"}, {FlagCOW, "cow"},
		{FlagHuge, "huge"}, {FlagDirty, "D"}, {FlagAccessed, "A"},
		{FlagShared, "shared"},
	} {
		if e&f.bit != 0 {
			s += "+" + f.name
		}
	}
	return s
}

// Virtual-address geometry.
const (
	LevelBits = 9
	Levels    = 4
	VABits    = Levels*LevelBits + mem.PageShift // 48
	// MaxVA is one past the highest mappable virtual address.
	MaxVA = uint64(1) << VABits

	entriesPerNode = 1 << LevelBits // 512
	usedWords      = entriesPerNode / 64
	tlbSize        = 64
)

// level of a node: 3 (root/PML4) down to 0 (PT). Huge mappings live at
// level 1.
func index(va uint64, level int) int {
	return int(va>>(mem.PageShift+uint(level)*LevelBits)) & (entriesPerNode - 1)
}

// node is one page-table page. It carries one 4 KiB array: a leaf
// (level 0) its entries in ptes, an interior node (levels 3..1) its
// children in kids, the other pointer nil. A level-1 node gets an entry
// array as well when it first maps a huge page, and a slot of it then
// holds either a kid or a huge PTE, never both.
type node struct {
	kids *[entriesPerNode]*node
	ptes *[entriesPerNode]PTE

	// used is the occupancy bitmap: bit i%64 of used[i/64] is set
	// exactly when slot i holds a kid or a present entry. Map, MapHuge,
	// Fill and Unmap keep it exact, and an empty slot is all zero. The
	// walks that must see every populated slot read it instead of
	// scanning 512: interior nodes iterate their set bits; leaves skip
	// empty 64-slot words but scan the rest straight through, since a
	// fork parent's leaves are dense.
	used [usedWords]uint64

	// shared marks a node host-COW-aliased by a frozen template and
	// its clones (see CloneHost): it is immutable, referenced by any
	// number of tables, and never returned to a pool. Writers copy
	// a shared node out of the way first (ownedCopy) — a host-only
	// operation that charges nothing, because logically the clone
	// already owned the node.
	shared bool

	// forked marks a leaf whose present entries are all in fork form
	// (forkEntry(e) == e), so CloneCOW can link it without scanning it.
	// CloneCOW sets it; Map, Fill, Update and Visit's rewrite clear it.
	forked bool

	// forks counts the tables beyond the first that link this leaf
	// (CloneCOW links a parent's leaves into the child instead of
	// copying them). The leaf's entries hold one frame reference
	// each; the forks extra tables' references are deferred until one
	// of them writes through the leaf and gets a private copy
	// (privatize) or drops its link in Destroy. A leaf with forks > 0
	// is forked, immutable and never template-shared.
	forks int32
}

// ownedCopy returns a private, writable copy of a shared node. The
// copy's kids still point at shared children; they get their own
// copies if and when they are written.
func ownedCopy(n *node) *node {
	var c *node
	if n.kids == nil {
		c = leafPool.Get().(*node)
		*c.ptes = *n.ptes
	} else {
		c = innerPool.Get().(*node)
		*c.kids = *n.kids
		if n.ptes != nil {
			*c.entryArray() = *n.ptes
		}
	}
	c.used = n.used
	c.forked = n.forked
	return c
}

// entryArray returns n's entry array, giving a level-1 node one when it
// first maps a huge page.
func (n *node) entryArray() *[entriesPerNode]PTE {
	if n.ptes == nil {
		n.ptes = new([entriesPerNode]PTE)
	}
	return n.ptes
}

// huge reports whether slot i of a level-1 node holds a 2 MiB mapping.
func (n *node) huge(i int) bool {
	return n.ptes != nil && n.ptes[i].Present() && n.ptes[i].Huge()
}

// private reports whether a table may write through n in place: n is
// neither template-shared nor linked by another table.
func (n *node) private() bool { return !n.shared && n.forks == 0 }

func (n *node) occupy(i int) { n.used[uint(i)/64] |= 1 << (uint(i) % 64) }
func (n *node) vacate(i int) { n.used[uint(i)/64] &^= 1 << (uint(i) % 64) }

// count reports how many slots n occupies: a leaf's present entries.
func (n *node) count() uint64 {
	c := 0
	for _, w := range n.used {
		c += bits.OnesCount64(w)
	}
	return uint64(c)
}

// frames gathers the frames of a leaf's present entries into buf, in
// slot order, so their references move in one IncRefs or DecRefs call.
func (n *node) frames(buf *[entriesPerNode]mem.FrameID) []mem.FrameID {
	k := 0
	for w, word := range n.used {
		if word == 0 {
			continue
		}
		for i := w * 64; i < w*64+64; i++ {
			if e := n.ptes[i]; e.Present() {
				buf[k] = e.Frame()
				k++
			}
		}
	}
	return buf[:k]
}

// leafPool and innerPool recycle radix nodes between tables: leaves
// with their entry array, interior nodes with their child array and no
// entry array. Fork-heavy workloads allocate and destroy a mirror node
// per interior page-table page per child (leaves are linked, not
// mirrored), and each demand fault into a fresh 2 MiB region takes a
// leaf; without pooling each is a 4 KiB host allocation plus its
// header, and at tens of thousands of creations the garbage collector
// dominates the simulator's own run time. Nodes come back zeroed:
// Destroy's teardown clears every used slot as it walks, and drops a
// level-1 node's huge-entry array, so taking one needs no
// re-initialisation. sync.Pool keeps this safe under `go test -race`
// with parallel tests.
var (
	leafPool  = sync.Pool{New: func() any { return &node{ptes: new([entriesPerNode]PTE)} }}
	innerPool = sync.Pool{New: func() any { return &node{kids: new([entriesPerNode]*node)} }}
)

// newNode returns a zeroed node for a page-table page at level.
func newNode(level int) *node {
	if level == 0 {
		return leafPool.Get().(*node)
	}
	return innerPool.Get().(*node)
}

// putNode returns a zeroed node to its pool.
func putNode(n *node) {
	if n.kids == nil {
		leafPool.Put(n)
	} else {
		innerPool.Put(n)
	}
}

// tlbEntry caches one translation. A cached PTE is always present, so
// its present bit doubles as the entry's valid bit: the zero entry is
// an empty one.
type tlbEntry struct {
	vpn uint64 // virtual page number (base-page granularity)
	pte PTE
}

// Table is one address space's page-table tree plus a tiny TLB.
type Table struct {
	phys  *mem.Physical
	meter *cost.Meter
	root  *node

	nodes       int // interior + leaf page-table pages, excluding root
	entries     int // present leaf PTEs (a huge mapping counts once)
	hugeEntries int

	tlb [tlbSize]tlbEntry

	// leaf is the level-0 node the last walk reached, covering the
	// 2 MiB region leafKey (va >> mem.HugeShift), so the Lookup and the
	// Fill of a run of demand faults, or the Lookup and Update of a COW
	// break, walk the tree once. It is always the node the tree links
	// at leafKey: a full walk re-caches the leaf it reaches, and an
	// ancestor it copies out keeps the same kids; only Destroy, Visit
	// and CloneCOW free or relink nodes off their own path, and they
	// reset it. Readers use it as is. Writers use it only when it is
	// private: a CloneHost may have template-shared it, or a CloneCOW
	// fork-shared it, since it was cached, and a shared leaf must be
	// copied out and relinked by the full walk. Host state only: a hit
	// charges what the walk did.
	leaf    *node
	leafKey uint64
}

// New creates an empty table. The root node is charged like any other
// page-table page.
func New(phys *mem.Physical, meter *cost.Meter) *Table {
	meter.Charge(meter.Model.PTNodeAlloc)
	meter.PTNodes++
	return &Table{phys: phys, meter: meter, root: newNode(Levels - 1)}
}

// Entries reports the number of present leaf entries (huge counts 1).
func (t *Table) Entries() int { return t.entries }

// HugeEntries reports how many of the entries are 2 MiB mappings.
func (t *Table) HugeEntries() int { return t.hugeEntries }

// Nodes reports the number of page-table pages below the root.
func (t *Table) Nodes() int { return t.nodes }

func (t *Table) tlbSlot(vpn uint64) *tlbEntry { return &t.tlb[vpn%tlbSize] }

// invalidateTLB drops any cached translation for va. Operations on
// huge mappings do a full flushTLB instead, since a single huge entry
// backs 512 cached vpns.
func (t *Table) invalidateTLB(va uint64) {
	vpn := va >> mem.PageShift
	if s := t.tlbSlot(vpn); s.vpn == vpn {
		*s = tlbEntry{}
	}
}

// flushTLB drops all cached translations and charges the flush cost.
func (t *Table) flushTLB() {
	t.tlb = [tlbSize]tlbEntry{}
	t.meter.Charge(t.meter.Model.TLBFlush)
}

func checkVA(va uint64) {
	if va >= MaxVA {
		panic(fmt.Sprintf("pagetable: va %#x beyond %d-bit space", va, VABits))
	}
}

// cached returns the cached leaf when it covers va, and nil otherwise.
func (t *Table) cached(va uint64) *node {
	if t.leafKey == va>>mem.HugeShift {
		return t.leaf
	}
	return nil
}

// ownPath returns the node at level stop on va's path, ready to be
// written: missing nodes are allocated and charged, template-shared
// ones copied out of the way and a fork-shared leaf privatized
// (host-only; logically the table owned them all along). A 4 KiB path
// (stop 0) may not cross a huge mapping.
func (t *Table) ownPath(va uint64, stop int) *node {
	if t.root.shared {
		t.root = ownedCopy(t.root)
	}
	n := t.root
	for level := Levels - 1; level > stop; level-- {
		i := index(va, level)
		if level == 1 && n.huge(i) {
			panic(fmt.Sprintf("pagetable: 4K map %#x overlaps huge mapping", va))
		}
		kid := n.kids[i]
		switch {
		case kid == nil:
			kid = newNode(level - 1)
			n.kids[i] = kid
			n.occupy(i)
			t.nodes++
			t.meter.Charge(t.meter.Model.PTNodeAlloc)
			t.meter.PTNodes++
		case !kid.private():
			kid = t.own(kid)
			n.kids[i] = kid
		}
		n = kid
	}
	return n
}

// own returns a node t may write in place of n: n itself when it is
// private, an owned copy when it is template-shared, and t's own copy
// when it is fork-shared (privatize).
func (t *Table) own(n *node) *node {
	switch {
	case n.shared:
		return ownedCopy(n)
	case n.forks > 0:
		return t.privatize(n)
	}
	return n
}

// privatize returns the table's own copy of a fork-shared leaf, taking
// the frame references the table had deferred in one IncRefs call, and
// drops the table's link to the shared one. Host-only: logically the
// table held its copy and its references since the fork, so nothing is
// charged.
func (t *Table) privatize(n *node) *node {
	var buf [entriesPerNode]mem.FrameID
	t.phys.IncRefs(n.frames(&buf))
	n.forks--
	return ownedCopy(n)
}

// Map installs a 4 KiB mapping for va (page-aligned). Any existing
// entry is overwritten; the caller is responsible for frame refcounts
// of a replaced entry (use Unmap first if that matters).
func (t *Table) Map(va uint64, e PTE) {
	checkVA(va)
	if va&(mem.PageSize-1) != 0 {
		panic(fmt.Sprintf("pagetable: unaligned map %#x", va))
	}
	n := t.cached(va)
	if n == nil || !n.private() {
		n = t.ownPath(va, 0)
		t.leaf, t.leafKey = n, va>>mem.HugeShift
	}
	i := index(va, 0)
	if !n.ptes[i].Present() {
		t.entries++
		n.occupy(i)
	}
	n.ptes[i] = e | FlagPresent
	n.forked = false
	t.meter.Charge(t.meter.Model.PTEWrite)
	t.invalidateTLB(va)
}

// MapHuge installs a 2 MiB mapping at va (2 MiB-aligned) at level 1.
func (t *Table) MapHuge(va uint64, e PTE) {
	checkVA(va)
	if va&(mem.HugeSize-1) != 0 {
		panic(fmt.Sprintf("pagetable: unaligned huge map %#x", va))
	}
	n := t.ownPath(va, 1)
	i := index(va, 1)
	if n.kids[i] != nil {
		panic(fmt.Sprintf("pagetable: huge map %#x overlaps 4K mappings", va))
	}
	ptes := n.entryArray()
	if !ptes[i].Present() {
		t.entries++
		t.hugeEntries++
		n.occupy(i)
	}
	ptes[i] = e | FlagPresent | FlagHuge
	t.meter.Charge(t.meter.Model.PTEWrite)
	t.flushTLB()
}

// lookupSlot finds the slot holding va's translation: slot i of node
// n, a level-1 node for a huge mapping. n is nil when va is unmapped.
// A walk that reaches a leaf caches it.
func (t *Table) lookupSlot(va uint64) (n *node, i int) {
	if n = t.cached(va); n == nil {
		n = t.root
		for level := Levels - 1; level > 0; level-- {
			i = index(va, level)
			if level == 1 && n.huge(i) {
				return n, i
			}
			if n = n.kids[i]; n == nil {
				return nil, 0
			}
		}
		t.leaf, t.leafKey = n, va>>mem.HugeShift
	}
	i = index(va, 0)
	if !n.ptes[i].Present() {
		return nil, 0
	}
	return n, i
}

// lookupSlotOwn is lookupSlot for writers, and also reports whether
// the slot is a huge mapping's: every node on the returned slot's path
// is owned by this table, with template-shared nodes copied out of the
// way and a fork-shared leaf privatized (host-only; charges nothing —
// logically the table owned them all along).
func (t *Table) lookupSlotOwn(va uint64) (n *node, i int, huge bool) {
	if n = t.cached(va); n == nil || !n.private() {
		if t.root.shared {
			t.root = ownedCopy(t.root)
		}
		n = t.root
		for level := Levels - 1; level > 0; level-- {
			i = index(va, level)
			if level == 1 && n.huge(i) {
				return n, i, true
			}
			kid := n.kids[i]
			if kid == nil {
				return nil, 0, false
			}
			if !kid.private() {
				kid = t.own(kid)
				n.kids[i] = kid
			}
			n = kid
		}
		t.leaf, t.leafKey = n, va>>mem.HugeShift
	}
	i = index(va, 0)
	if !n.ptes[i].Present() {
		return nil, 0, false
	}
	return n, i, false
}

// Privatize gives t its own copy of the fork-shared leaf covering va,
// if there is one, taking the frame references t deferred when it
// forked; every node on va's path becomes t's alone. After it, the
// Physical.Refs of the frame va maps is 1 exactly when no other table
// maps that frame, which is what a COW break's sole-owner test reads.
// Host-only: nothing is charged and the TLB is left as it was.
func (t *Table) Privatize(va uint64) {
	checkVA(va)
	t.lookupSlotOwn(va)
}

// PrivatizeAll gives t its own copy of every fork-shared leaf it
// links, taking every frame reference t deferred, so no node of t's
// tree counts another table's link. A machine snapshot calls it on
// every table before its frame counts are copied: a template's leaves
// are immutable and cannot carry a count. Host-only, like Privatize.
func (t *Table) PrivatizeAll() {
	if t.root != nil {
		t.privatizeAll(t.root, Levels-1)
	}
	t.leaf = nil // it may have been one of the leaves replaced
}

// privatizeAll prunes at template-shared nodes: nothing below one is
// fork-shared, so the path to every fork-shared leaf is owned.
func (t *Table) privatizeAll(n *node, level int) {
	if n.shared {
		return
	}
	for w, word := range n.used {
		for ; word != 0; word &= word - 1 {
			i := w*64 + bits.TrailingZeros64(word)
			switch kid := n.kids[i]; {
			case kid == nil:
			case level > 1:
				t.privatizeAll(kid, level-1)
			case kid.forks > 0:
				n.kids[i] = t.privatize(kid)
			}
		}
	}
}

// Lookup translates va. The TLB is consulted first; a miss charges the
// software-walk cost. The boolean reports whether a mapping exists.
func (t *Table) Lookup(va uint64) (PTE, bool) {
	checkVA(va)
	vpn := va >> mem.PageShift
	if s := t.tlbSlot(vpn); s.pte.Present() && s.vpn == vpn {
		return s.pte, true
	}
	t.meter.Charge(t.meter.Model.PTWalk)
	n, i := t.lookupSlot(va)
	if n == nil {
		return 0, false
	}
	e := n.ptes[i]
	*t.tlbSlot(vpn) = tlbEntry{vpn: vpn, pte: e}
	return e, true
}

// Fill services a run of demand faults in one pass: va, which the
// caller's Lookup found absent, and each page after it, up to end, that
// is absent too. The run lies in va's 2 MiB leaf region: va is
// page-aligned and end is at most the region's end. The leaf is found
// once: in the leaf cache, or by the walk that installs the first entry,
// which copies a template- or fork-shared leaf out of the way as Map
// does.
//
// Each page is charged exactly what a Lookup, a fault handler and the
// retried access charge for it one page at a time, in this order:
//   - the probe, as Lookup makes it: a walk on a TLB miss, which for an
//     absent page it always is (va's probe was the caller's);
//   - the handler's walk to the slot;
//   - the call of fault with the page's address, which charges the rest
//     of the handler's work up to and including the frame allocation,
//     and returns the entry to install;
//   - a PTNodeAlloc for each node va's path lacks, when the first entry
//     goes in, and the entry write;
//   - the retried access's walk, which leaves the entry in the TLB.
//
// Fill stops at the first present page, which its probe leaves exactly
// as Lookup would, and returns that page's address; or at the first
// error fault returns, leaving that page absent; or at end, which it
// returns.
func (t *Table) Fill(va, end uint64, fault func(va uint64) (PTE, error)) (uint64, error) {
	checkVA(va)
	if va&(mem.PageSize-1) != 0 || end <= va || (end-1)>>mem.HugeShift != va>>mem.HugeShift {
		panic(fmt.Sprintf("pagetable: fill [%#x, %#x) is not a run in one leaf", va, end))
	}
	m := &t.meter.Model
	n := t.cached(va)
	for p := va; p < end; p += mem.PageSize {
		vpn, i := p>>mem.PageShift, index(p, 0)
		if p != va {
			// n is the leaf the first entry went into.
			if s := t.tlbSlot(vpn); s.pte.Present() && s.vpn == vpn {
				return p, nil
			}
			t.meter.Charge(m.PTWalk)
			if e := n.ptes[i]; e.Present() {
				*t.tlbSlot(vpn) = tlbEntry{vpn: vpn, pte: e}
				return p, nil
			}
		}
		t.meter.Charge(m.PTWalk)
		e, err := fault(p)
		if err != nil {
			return p, err
		}
		if n == nil || !n.private() {
			n = t.ownPath(p, 0)
			t.leaf, t.leafKey = n, p>>mem.HugeShift
		}
		if n.ptes[i].Present() {
			panic(fmt.Sprintf("pagetable: fill over present va %#x", p))
		}
		e |= FlagPresent
		n.ptes[i] = e
		n.occupy(i)
		n.forked = false
		t.entries++
		t.meter.Charge(m.PTEWrite + m.PTWalk)
		*t.tlbSlot(vpn) = tlbEntry{vpn: vpn, pte: e}
	}
	return end, nil
}

// Update rewrites the existing entry covering va (COW break, dirty and
// accessed bits). It panics if va is unmapped.
func (t *Table) Update(va uint64, e PTE) {
	checkVA(va)
	n, i, huge := t.lookupSlotOwn(va)
	if n == nil {
		panic(fmt.Sprintf("pagetable: update of unmapped va %#x", va))
	}
	if huge {
		e |= FlagHuge
	}
	n.ptes[i] = e | FlagPresent
	n.forked = false
	t.meter.Charge(t.meter.Model.PTEWrite)
	if huge {
		t.flushTLB()
	} else {
		t.invalidateTLB(va)
	}
}

// Unmap removes the translation covering va and returns the old entry.
// For a huge mapping, va must be the mapping's base. The caller owns
// the frame reference.
func (t *Table) Unmap(va uint64) (PTE, bool) {
	checkVA(va)
	n, i, huge := t.lookupSlotOwn(va)
	if n == nil {
		return 0, false
	}
	old := n.ptes[i]
	if huge && va&(mem.HugeSize-1) != 0 {
		panic(fmt.Sprintf("pagetable: unmap %#x inside huge mapping", va))
	}
	n.ptes[i] = 0
	n.vacate(i)
	t.entries--
	if huge {
		t.hugeEntries--
	}
	t.meter.Charge(t.meter.Model.PTEWrite)
	if huge {
		t.flushTLB()
	} else {
		t.invalidateTLB(va)
	}
	return old, true
}

// Visit calls fn for every present leaf entry in ascending va order.
// fn receives the mapping's base va and may rewrite the entry by
// returning a new value (return the input to leave it unchanged).
// Rewrites charge a PTE write; the TLB is flushed afterwards if any
// entry changed.
func (t *Table) Visit(fn func(va uint64, e PTE) PTE) {
	t.leaf = nil // a rewrite relinks every shared node it copies out
	root, changed := t.visit(t.root, 0, Levels-1, fn)
	t.root = root
	if changed {
		t.flushTLB()
	}
}

// visit returns the node it ended up writing through — n itself, or an
// owned copy when n was template-shared and a rewrite was needed — so
// the caller can relink it.
func (t *Table) visit(n *node, base uint64, level int, fn func(uint64, PTE) PTE) (*node, bool) {
	changed := false
	span := uint64(1) << (mem.PageShift + uint(level)*LevelBits)
	if level == 0 {
		for w, word := range n.used {
			if word == 0 {
				continue
			}
			for i := w * 64; i < w*64+64; i++ {
				if n.ptes[i].Present() {
					var ch bool
					n, ch = t.visitEntry(n, i, base+uint64(i)*span, fn)
					changed = changed || ch
				}
			}
		}
		return n, changed
	}
	for w, word := range n.used {
		for ; word != 0; word &= word - 1 {
			i := w*64 + bits.TrailingZeros64(word)
			va := base + uint64(i)*span
			if level == 1 && n.huge(i) {
				var ch bool
				n, ch = t.visitEntry(n, i, va, fn)
				changed = changed || ch
				continue
			}
			if kid := n.kids[i]; kid != nil {
				nk, ch := t.visit(kid, va, level-1, fn)
				if nk != kid {
					if n.shared {
						n = ownedCopy(n)
					}
					n.kids[i] = nk
				}
				changed = changed || ch
			}
		}
	}
	return n, changed
}

// visitEntry hands the present entry in slot i of n to fn and stores
// what fn returns, through an owned copy of n if n is template-shared
// and a private one if it is fork-shared. It returns the node written
// through and whether the entry changed.
func (t *Table) visitEntry(n *node, i int, va uint64, fn func(uint64, PTE) PTE) (*node, bool) {
	e := n.ptes[i]
	ne := fn(va, e)
	if ne == e {
		return n, false
	}
	n = t.own(n)
	n.ptes[i] = ne | FlagPresent
	n.forked = false
	t.meter.Charge(t.meter.Model.PTEWrite)
	return n, true
}

// cloneCounts accumulates the metered events of a clone walk so the
// cost is charged in one batch at the end instead of one Charge call
// per entry. The virtual-time total is identical — Θ(mapped pages)
// remains the paper's point — but the host-side inner loop shrinks to
// pointer and integer work, which is what lets the load scenarios fork
// large parents tens of thousands of times.
type cloneCounts struct {
	writes uint64 // PTE writes: child installs plus parent downgrades
	copies uint64 // leaf entries copied into the child
	nodes  uint64 // mirror page-table pages allocated
}

// charge applies the accumulated events to the meter in one batch.
func (cc *cloneCounts) charge(m *cost.Meter) {
	m.Charge(cost.Ticks(cc.writes)*m.Model.PTEWrite + cost.Ticks(cc.nodes)*m.Model.PTNodeAlloc)
	m.PTECopies += cc.copies
	m.PTNodes += cc.nodes
}

// CloneCOW builds a copy of t for a forked child: every private
// mapping is downgraded to read-only + COW in *both* tables and its
// frame reference count incremented; shared mappings are copied
// verbatim with an extra reference. The charge is the Θ(address-space
// size) loop at the heart of fork's cost: a mirror node for every
// page-table page and one entry write per mapping, plus each parent
// downgrade.
//
// On the host, interior nodes are mirrored but leaves are linked: the
// child links each of the parent's leaves, which counts the extra link
// in forks and defers the child's frame references until one side
// writes through it (see privatize). A leaf already in fork form
// (forked) is linked without being scanned, so a parent that forks
// again, or whose earlier child is gone, pays O(nodes) on the host.
// A template-shared leaf cannot carry a count: one that needs no
// downgrade is linked with the child's references taken at once, as
// stamps alias template nodes; one that needs a downgrade is copied
// out of the way first, and the copy is linked.
//
// Both local TLBs are flushed (the parent's mappings just lost their
// write permission). On a multicore machine the downgrade must also
// reach every other CPU running the parent; that per-remote-CPU
// shootdown IPI is charged by addrspace.CloneCOW, which knows the
// space's CPU residency.
func (t *Table) CloneCOW() *Table {
	child := New(t.phys, t.meter)
	var cc cloneCounts
	t.leaf = nil // the downgrade relinks every shared node it copies out
	t.root = child.cloneNode(t.root, child.root, Levels-1, &cc)
	child.nodes = int(cc.nodes)
	child.entries = t.entries
	child.hugeEntries = t.hugeEntries
	cc.charge(t.meter)
	t.flushTLB()
	child.flushTLB()
	return child
}

// cloneNode mirrors an interior node into cn. It returns the
// parent-side node it downgraded through — pn itself, or an owned copy
// when pn was template-shared — so the caller (and CloneCOW for the
// root) can relink it into the parent table.
func (c *Table) cloneNode(pn, cn *node, level int, cc *cloneCounts) *node {
	cn.used = pn.used
	for w, word := range pn.used {
		for ; word != 0; word &= word - 1 {
			i := w*64 + bits.TrailingZeros64(word)
			if level == 1 && pn.huge(i) {
				e := pn.ptes[i]
				c.phys.IncRef(e.Frame())
				ce := forkEntry(e)
				if ce != e {
					if pn.shared {
						pn = ownedCopy(pn)
					}
					pn.ptes[i] = ce
					cc.writes++
				}
				cn.entryArray()[i] = ce
				cc.writes++
				cc.copies++
				continue
			}
			kid := pn.kids[i]
			if kid == nil {
				continue
			}
			cc.nodes++
			var nk *node
			if level == 1 {
				nk = c.shareLeaf(kid, cc)
				cn.kids[i] = nk
			} else {
				cn.kids[i] = newNode(level - 1)
				nk = c.cloneNode(kid, cn.kids[i], level-1, cc)
			}
			if nk != kid {
				if pn.shared {
					pn = ownedCopy(pn)
				}
				pn.kids[i] = nk
			}
		}
	}
	return pn
}

// shareLeaf forks the parent's leaf pn and returns the node both
// tables link from now on: pn itself, or its downgraded copy when pn
// is template-shared and not yet in fork form. The child's entries are
// counted as installed (and the parent's downgrades as written) just
// as if they had been copied one by one.
func (c *Table) shareLeaf(pn *node, cc *cloneCounts) *node {
	n := pn.count()
	cc.writes += n
	cc.copies += n
	if pn.shared {
		if pn.forked || inForkForm(pn) {
			var buf [entriesPerNode]mem.FrameID
			c.phys.IncRefs(pn.frames(&buf))
			return pn
		}
		pn = ownedCopy(pn)
	}
	if !pn.forked {
		cc.writes += downgrade(pn)
		pn.forked = true
	}
	pn.forks++
	return pn
}

// inForkForm reports whether every present entry of leaf n is already
// what a fork leaves in both tables.
func inForkForm(n *node) bool {
	for w, word := range n.used {
		if word == 0 {
			continue
		}
		for i := w * 64; i < w*64+64; i++ {
			if e := n.ptes[i]; e.Present() && forkEntry(e) != e {
				return false
			}
		}
	}
	return true
}

// downgrade rewrites every present entry of leaf n into fork form in
// place and reports how many it changed.
func downgrade(n *node) uint64 {
	var writes uint64
	for w, word := range n.used {
		if word == 0 {
			continue
		}
		for i := w * 64; i < w*64+64; i++ {
			e := n.ptes[i]
			if !e.Present() {
				continue
			}
			if ce := forkEntry(e); ce != e {
				n.ptes[i] = ce
				writes++
			}
		}
	}
	return writes
}

// forkEntry is the entry both tables hold after a COW fork. A shared
// mapping keeps its frame and full permissions. A private mapping
// loses write permission and is tagged COW (even an already-read-only
// page gets its frame shared; keeping COW only on pages that were
// writable preserves their eventual write-back permission).
func forkEntry(e PTE) PTE {
	if e.Shared() {
		return e
	}
	ce := e.Without(FlagWritable)
	if e.Writable() || e.COW() {
		ce = ce.With(FlagCOW)
	}
	return ce
}

// CloneEager builds a fully copied table for a child, 1970s-style: a
// fresh frame is allocated and the contents copied for every private
// mapping. Used by the kernel's EagerFork ablation. It can fail with
// ENOMEM mid-way; the partially built table is returned along with the
// error so the caller can destroy it.
func (t *Table) CloneEager() (*Table, error) {
	child := New(t.phys, t.meter)
	var cc cloneCounts
	err := child.cloneEagerNode(t.root, child.root, Levels-1, &cc)
	child.nodes = int(cc.nodes)
	// Charge even on the ENOMEM path: the work up to the failure
	// happened and its cost is real.
	cc.charge(t.meter)
	return child, err
}

// cloneEagerNode marks each child slot occupied as it fills it, so a
// table cut short by ENOMEM still tears down exactly.
func (c *Table) cloneEagerNode(pn, cn *node, level int, cc *cloneCounts) error {
	for w, word := range pn.used {
		for ; word != 0; word &= word - 1 {
			i := w*64 + bits.TrailingZeros64(word)
			if level == 0 || (level == 1 && pn.huge(i)) {
				e := pn.ptes[i]
				if !e.Present() {
					continue
				}
				if e.Shared() {
					c.phys.IncRef(e.Frame())
					cn.entryArray()[i] = e
				} else {
					nf, err := c.phys.CopyFrame(e.Frame())
					if err != nil {
						return err
					}
					cn.entryArray()[i] = Make(nf, e.Flags())
				}
				cn.occupy(i)
				cc.writes++
				cc.copies++
				c.entries++
				if e.Huge() {
					c.hugeEntries++
				}
				continue
			}
			if pn.kids[i] == nil {
				continue
			}
			cn.kids[i] = newNode(level - 1)
			cn.occupy(i)
			cc.nodes++
			if err := c.cloneEagerNode(pn.kids[i], cn.kids[i], level-1, cc); err != nil {
				return err
			}
		}
	}
	return nil
}

// Destroy tears the tree down and returns how many 4 KiB pages its
// entries mapped (a huge entry counts 512), charging the node-free
// cost for every page-table page including the root. Both counts come
// from the table's own books — entries, hugeEntries and nodes, which
// every write keeps exact — so the walk counts nothing, and dropping a
// fork-shared leaf's link is O(1).
//
// With release == nil the table drops every entry's frame reference
// itself, one DecRefs call per leaf, in ascending va order; from a
// fork-shared leaf it drops only its link, since the references it
// would drop were never taken. Otherwise release is called for every
// present leaf entry, in the same order, and takes over that entry's
// reference; a fork-shared leaf's deferred references are taken first.
func (t *Table) Destroy(release func(va uint64, e PTE)) (pages uint64) {
	pages = uint64(t.entries-t.hugeEntries) + uint64(t.hugeEntries)*mem.FramesPerHuge
	td := teardown{phys: t.phys, release: release}
	td.node(t.root, 0, Levels-1)
	t.root, t.leaf = nil, nil
	t.meter.Charge(cost.Ticks(t.nodes+1) * t.meter.Model.PTNodeFree) // the root too
	t.entries, t.nodes, t.hugeEntries = 0, 0, 0
	t.tlb = [tlbSize]tlbEntry{}
	return pages
}

// teardown is one Destroy walk: where each entry's frame reference
// goes, and the one buffer every leaf's frames gather in on their way
// to DecRefs, zeroed once per Destroy rather than once per leaf.
type teardown struct {
	phys    *mem.Physical
	release func(va uint64, e PTE) // nil: drop references through phys
	frames  [entriesPerNode]mem.FrameID
}

// node visits only the slots n's bitmap marks used and zeroes them,
// bitmap included, drops a level-1 node's huge-entry array, and returns
// n to its pool fully cleared, so newNode needs no re-initialisation.
// Template-shared nodes are left untouched and unpooled — other tables
// still alias them — but Destroy still charges their frees: the clone
// logically owned and freed them, and the cold machine it must stay
// metric-identical to charges for every one.
func (td *teardown) node(n *node, base uint64, level int) {
	if level == 0 {
		td.leaf(n, base)
		return
	}
	span := uint64(1) << (mem.PageShift + uint(level)*LevelBits)
	for w, word := range n.used {
		for ; word != 0; word &= word - 1 {
			i := w*64 + bits.TrailingZeros64(word)
			va := base + uint64(i)*span
			if level == 1 && n.huge(i) {
				if e := n.ptes[i]; td.release != nil {
					td.release(va, e)
				} else {
					td.phys.DecRef(e.Frame())
				}
				continue
			}
			if kid := n.kids[i]; kid != nil {
				td.node(kid, va, level-1)
				if !n.shared {
					n.kids[i] = nil
				}
			}
		}
	}
	if !n.shared {
		n.used = [usedWords]uint64{}
		n.ptes = nil
		putNode(n)
	}
}

// leaf releases a level-0 node's entries. Without a release callback
// the frame ids gather in the walk's buffer and go to one DecRefs call.
// A fork-shared leaf only loses this table's link: the references its
// entries hold stay with the tables that still link it, so without a
// callback dropping it is forks-- alone, and a release callback is
// handed references taken for it first.
func (td *teardown) leaf(n *node, base uint64) {
	keep := n.shared || n.forks > 0 // other tables still link n
	if n.forks > 0 {
		n.forks--
		if td.release == nil {
			return
		}
		td.phys.IncRefs(n.frames(&td.frames))
	}
	k := 0
	for w, word := range n.used {
		if word == 0 {
			continue
		}
		for i := w * 64; i < w*64+64; i++ {
			e := n.ptes[i]
			if !e.Present() {
				continue
			}
			if td.release != nil {
				td.release(base+uint64(i)<<mem.PageShift, e)
			} else {
				td.frames[k] = e.Frame()
				k++
			}
		}
		if !keep {
			clear(n.ptes[w*64 : w*64+64])
		}
	}
	td.phys.DecRefs(td.frames[:k])
	if !keep {
		n.used = [usedWords]uint64{}
		n.forked = false
		putNode(n)
	}
}
