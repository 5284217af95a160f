package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/sim/load"
)

// figure1Methods are Figure 1's lines over 4 KiB pages, in column
// order.
var figure1Methods = []core.Method{core.MethodForkExec, core.MethodVforkExec, core.MethodSpawn}

// Figure1 reproduces the paper's Figure 1: the time to create a
// minimal child via fork+exec, vfork+exec and posix_spawn from parents
// of 1 MiB up to maxBytes, doubling, plus a fork+exec line over 2 MiB
// pages from 2 MiB up. Its tail names the smallest parent at which
// spawn beats fork+exec, the paper's ~1 MiB crossover.
func Figure1(maxBytes uint64) (*Sweep, error) {
	s := &Sweep{head: "Figure 1: process-creation latency vs parent size (virtual µs)\n", cols: []column{parentSize}}
	for _, size := range sizeSweep(MiB, maxBytes) {
		row := creations(size, false, figure1Methods...)
		if size >= 2*MiB {
			row = append(row, creations(size, true, core.MethodForkExec)...)
		}
		s.rows = append(s.rows, row)
	}
	micros := func(c *creation) string { return fmt.Sprintf("%.1f", c.virt.Micros()) }
	for i, m := range figure1Methods {
		s.cols = append(s.cols, creationCol(m.String()+" µs", i, micros))
	}
	s.cols = append(s.cols, creationCol("fork+exec (2MiB pages) µs", len(figure1Methods), micros))
	if _, err := s.run(); err != nil {
		return nil, err
	}
	if cx := crossover(s.rows); cx != 0 {
		s.tail = fmt.Sprintf("\nspawn overtakes fork+exec at parent size %s\n", load.HumanBytes(cx))
	}
	return s, nil
}

// crossover is the smallest parent size of a Figure 1 sweep at which
// spawn beats fork+exec, or 0 if it never does.
func crossover(rows [][]cell) uint64 {
	for _, r := range rows {
		if fork, spawn := r[0].create, r[2].create; spawn.virt < fork.virt {
			return fork.size
		}
	}
	return 0
}
