package pagetable

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/mem"
)

// CheckHostState checks the host-only state the walks rely on, over
// every live table of one machine:
//   - every node's occupancy bit is set exactly when its slot holds a
//     kid or a present entry;
//   - the cached leaf, if any, is the node the tree links at its key;
//   - a forked leaf holds every present entry in fork form;
//   - a fork-shared leaf is forked and never template-shared, and only
//     leaves count forks;
//   - 1 + forks equals the number of the given tables that link each
//     leaf that is not template-shared;
//   - every node has its level's shape: a leaf an entry array and no
//     child array, an interior node a child array, and an entry array
//     only at level 1, where no slot holds both a child and an entry;
//   - the nodes each pool hands out next have their pool's shape and
//     are zeroed;
//   - each table's Entries, HugeEntries and Nodes count what its tree
//     holds (all zero once it is destroyed), since Destroy reports and
//     charges them without a walk.
//
// It scans all 512 slots of every distinct node, so it does not trust
// the bitmap it is checking. Pass every live table that can link the
// same leaves, or the link counts cannot balance.
func CheckHostState(tabs ...*Table) error {
	links := map[*node]int{}
	seen := map[*node]tally{}
	for _, t := range tabs {
		if t.root == nil {
			if t.entries != 0 || t.hugeEntries != 0 || t.nodes != 0 {
				return fmt.Errorf("destroyed table counts %d entries, %d huge, %d nodes", t.entries, t.hugeEntries, t.nodes)
			}
			continue
		}
		if err := checkNode(t.root, 0, Levels-1, links, seen); err != nil {
			return err
		}
		if c := seen[t.root]; c != (tally{nodes: t.nodes, entries: t.entries, huge: t.hugeEntries}) {
			return fmt.Errorf("table counts %d entries, %d huge, %d nodes; its tree holds %d, %d, %d",
				t.entries, t.hugeEntries, t.nodes, c.entries, c.huge, c.nodes)
		}
		if t.leaf == nil {
			continue
		}
		va := t.leafKey << mem.HugeShift
		n := t.root
		for level := Levels - 1; level > 0 && n != nil; level-- {
			n = n.kids[index(va, level)]
		}
		if n != t.leaf {
			return fmt.Errorf("cached leaf for %#x is not the one the tree links", va)
		}
	}
	for n, k := range links {
		if int(n.forks)+1 != k {
			return fmt.Errorf("leaf linked by %d tables counts %d forks", k, n.forks)
		}
	}
	return checkPools()
}

// tally is what a subtree holds: its page-table pages below its root,
// its present entries (a huge one counting once) and, of those, the
// huge ones. A table's counters must equal its root's.
type tally struct{ nodes, entries, huge int }

// checkShape holds n to the shape of a node at level.
func checkShape(n *node, level int) error {
	switch {
	case level == 0 && (n.ptes == nil || n.kids != nil):
		return fmt.Errorf("leaf has entry array %v, child array %v", n.ptes != nil, n.kids != nil)
	case level > 0 && n.kids == nil:
		return errors.New("interior node has no child array")
	case level > 1 && n.ptes != nil:
		return errors.New("interior node above level 1 has an entry array")
	}
	return nil
}

// checkPools takes the next few nodes from each pool, holds each to
// its pool's shape (a pooled interior node may go to any interior
// level, so it has no entry array) and to the zero state newNode
// promises, and puts them back.
func checkPools() error {
	const sample = 4
	for _, p := range []struct {
		pool  *sync.Pool
		level int
	}{{&leafPool, 0}, {&innerPool, Levels - 1}} {
		var got []*node
		for range sample {
			got = append(got, p.pool.Get().(*node))
		}
		for _, n := range got {
			if err := checkShape(n, p.level); err != nil {
				return fmt.Errorf("pooled level-%d node: %v", p.level, err)
			}
			zero := n.used == [usedWords]uint64{} && !n.shared && !n.forked && n.forks == 0 &&
				(n.ptes == nil || *n.ptes == [entriesPerNode]PTE{}) &&
				(n.kids == nil || *n.kids == [entriesPerNode]*node{})
			if !zero {
				return fmt.Errorf("pooled level-%d node is not zeroed", p.level)
			}
		}
		for _, n := range got {
			p.pool.Put(n)
		}
	}
	return nil
}

// noKids and noPTEs stand in for a node's missing array, which reads
// as empty. Only read.
var (
	noKids [entriesPerNode]*node
	noPTEs [entriesPerNode]PTE
)

// checkNode checks the subtree at n and records its tally in seen,
// which holds the tally of every node already checked, so a node that
// several tables link is scanned once.
func checkNode(n *node, base uint64, level int, links map[*node]int, seen map[*node]tally) error {
	if level == 0 && !n.shared {
		links[n]++
	}
	if _, ok := seen[n]; ok {
		return nil
	}
	if err := checkShape(n, level); err != nil {
		return fmt.Errorf("level-%d node at %#x: %v", level, base, err)
	}
	kids, ptes := n.kids, n.ptes
	if kids == nil {
		kids = &noKids
	}
	if ptes == nil {
		ptes = &noPTEs
	}
	var c tally
	var want [usedWords]uint64
	for i := range entriesPerNode {
		kid, e := kids[i], ptes[i]
		if kid != nil && e.Present() {
			return fmt.Errorf("level-%d node at %#x holds a child and %v in slot %d", level, base, e, i)
		}
		if kid != nil || e.Present() {
			want[i/64] |= 1 << (i % 64)
		}
		if e.Present() {
			c.entries++
			if level > 0 {
				c.huge++
			}
		}
		if level == 0 && n.forked && e.Present() && forkEntry(e) != e {
			return fmt.Errorf("forked leaf at %#x holds %v in slot %d", base, e, i)
		}
	}
	if want != n.used {
		return fmt.Errorf("level-%d node at %#x: occupancy bitmap %x, slots hold %x", level, base, n.used, want)
	}
	if level > 0 && n.forks != 0 {
		return fmt.Errorf("level-%d node at %#x counts %d forks", level, base, n.forks)
	}
	if level == 0 {
		switch {
		case n.forks < 0:
			return fmt.Errorf("leaf at %#x counts %d forks", base, n.forks)
		case n.forks > 0 && (!n.forked || n.shared):
			return fmt.Errorf("fork-shared leaf at %#x: forked=%v template-shared=%v", base, n.forked, n.shared)
		}
		seen[n] = c
		return nil
	}
	span := uint64(1) << (mem.PageShift + uint(level)*LevelBits)
	for i, kid := range n.kids {
		if kid != nil {
			if err := checkNode(kid, base+uint64(i)*span, level-1, links, seen); err != nil {
				return err
			}
			kc := seen[kid]
			c.nodes += 1 + kc.nodes
			c.entries += kc.entries
			c.huge += kc.huge
		}
	}
	seen[n] = c
	return nil
}

// LogicalRefs returns a reader of frame reference counts as an eager
// clone would hold them, given every live table of one machine:
// Physical.Refs plus the forks of every distinct fork-shared leaf that
// maps the frame. lazy reports whether any such leaf maps it; where
// none does, Physical.Refs alone is the eager count.
func LogicalRefs(phys *mem.Physical, tabs ...*Table) func(f mem.FrameID) (refs int32, lazy bool) {
	deferred := map[mem.FrameID]int32{}
	seen := map[*node]bool{}
	var walk func(n *node, level int)
	walk = func(n *node, level int) {
		if level > 0 {
			for _, kid := range n.kids {
				if kid != nil {
					walk(kid, level-1)
				}
			}
			return
		}
		if n.forks == 0 || seen[n] {
			return
		}
		seen[n] = true
		for _, e := range n.ptes {
			if e.Present() {
				deferred[e.Frame()] += n.forks
			}
		}
	}
	for _, t := range tabs {
		if t.root != nil {
			walk(t.root, Levels-1)
		}
	}
	return func(f mem.FrameID) (int32, bool) {
		d, lazy := deferred[f]
		return phys.Refs(f) + d, lazy
	}
}

// Mappings returns every present leaf entry by base va, as Visit would
// hand them over, without touching the leaf cache or the TLB, so a
// check between ops leaves the next op to run from the state the last
// one left. It trusts the occupancy bitmaps, which CheckHostState
// checks.
func Mappings(t *Table) map[uint64]PTE {
	out := make(map[uint64]PTE, t.entries)
	var walk func(n *node, base uint64, level int)
	walk = func(n *node, base uint64, level int) {
		span := uint64(1) << (mem.PageShift + uint(level)*LevelBits)
		for w, word := range n.used {
			for ; word != 0; word &= word - 1 {
				i := w*64 + bits.TrailingZeros64(word)
				if level == 0 || n.huge(i) {
					out[base+uint64(i)*span] = n.ptes[i]
				} else {
					walk(n.kids[i], base+uint64(i)*span, level-1)
				}
			}
		}
	}
	if t.root != nil {
		walk(t.root, 0, Levels-1)
	}
	return out
}
