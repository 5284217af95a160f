package pagetable

import (
	"math/bits"

	"repro/internal/cost"
	"repro/internal/mem"
)

// CloneHost duplicates the table's entire logical state — every radix
// node, PTE, counter, and the TLB — into a new table bound to the
// clone machine's physical memory and meter, without copying a single
// node: the clone aliases the source's radix tree, with every node
// flagged shared so the first write on any path copies just that
// path's nodes out (ownedCopy). Unlike CloneCOW this is a host-side
// operation — it charges nothing and touches no refcounts (the counts
// travel wholesale inside the cloned Physical) — so stamping a machine
// costs O(1) here regardless of how much is mapped.
//
// markSrc selects whether the source's nodes are (re)flagged shared.
// A snapshot into an immutable template passes true: the live source
// keeps running and must break sharing before writing nodes the
// template now aliases. Stamping from a frozen template passes false —
// its tree was marked when the template was made, so the stamp only
// reads it, even through its leaf cache, and concurrent stamps remain
// race-free without locks. (An
// unmarked source cloned with markSrc=false is marked anyway; that
// combination only arises single-threaded, outside the template
// contract.)
func (t *Table) CloneHost(phys *mem.Physical, meter *cost.Meter, markSrc bool) *Table {
	if markSrc || !t.root.shared {
		markShared(t.root, Levels-1)
	}
	return &Table{
		phys:        phys,
		meter:       meter,
		root:        t.root,
		nodes:       t.nodes,
		entries:     t.entries,
		hugeEntries: t.hugeEntries,
		tlb:         t.tlb,
	}
}

// markShared flags a subtree immutable-and-aliasable. A shared node's
// children are always already shared (ownership breaks copy top-down
// and never touch shared nodes), so the walk prunes there — repeated
// snapshots of a live machine only pay for nodes written since the
// last one. A fork-shared leaf cannot be marked: its count would be
// shared with the template and moved by the live tables. The snapshot
// must PrivatizeAll every table first.
func markShared(n *node, level int) {
	if n.shared {
		return
	}
	if n.forks > 0 {
		panic("pagetable: template snapshot of a fork-shared leaf")
	}
	n.shared = true
	if level == 0 {
		return
	}
	for w, word := range n.used {
		for ; word != 0; word &= word - 1 {
			if kid := n.kids[w*64+bits.TrailingZeros64(word)]; kid != nil {
				markShared(kid, level-1)
			}
		}
	}
}
