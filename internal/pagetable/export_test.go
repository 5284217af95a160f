package pagetable

import (
	"fmt"

	"repro/internal/mem"
)

// CheckHostState checks the host-only state the walks rely on: every
// node's occupancy bit is set exactly when its slot holds a kid or a
// present entry, and the cached leaf, if any, is the node the tree
// links at its key. It scans all 512 slots of every node, so it does
// not trust the bitmap it is checking.
func CheckHostState(t *Table) error {
	if t.root == nil {
		return nil
	}
	if err := checkUsed(t.root, 0, Levels-1); err != nil {
		return err
	}
	if t.leaf == nil {
		return nil
	}
	va := t.leafKey << mem.HugeShift
	n := t.root
	for level := Levels - 1; level > 0 && n != nil; level-- {
		n = n.kids[index(va, level)]
	}
	if n != t.leaf {
		return fmt.Errorf("cached leaf for %#x is not the one the tree links", va)
	}
	return nil
}

func checkUsed(n *node, base uint64, level int) error {
	var want [usedWords]uint64
	for i := range n.kids {
		if n.kids[i] != nil || n.ptes[i].Present() {
			want[i/64] |= 1 << (i % 64)
		}
	}
	if want != n.used {
		return fmt.Errorf("level-%d node at %#x: occupancy bitmap %x, slots hold %x", level, base, n.used, want)
	}
	if level == 0 {
		return nil
	}
	span := uint64(1) << (mem.PageShift + uint(level)*LevelBits)
	for i, kid := range n.kids {
		if kid != nil {
			if err := checkUsed(kid, base+uint64(i)*span, level-1); err != nil {
				return err
			}
		}
	}
	return nil
}
