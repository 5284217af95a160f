package experiments

import (
	"fmt"

	"repro/sim/cluster"
	"repro/sim/fleet"
	"repro/sim/load"
)

// A Sweep is one load-backed claim experiment (E8–E12, E15, E16) as
// data: the prose printed above its table, rows of cells to simulate,
// and the columns that render each row. Each experiment's constructor
// builds its sweep from the clamped -max and runs it.
type Sweep struct {
	head string
	rows [][]cell
	cols []column
}

// A cell is one simulation in a sweep row: a load.Config, or a
// fleet.Spec (E10) or cluster.Spec (E12) run whole. run stores the
// outcome beside the spec that produced it.
type cell struct {
	cfg     load.Config
	fleet   *fleet.Spec
	cluster *cluster.Spec

	m  *load.Metrics   // cfg's outcome
	fr *fleet.Result   // fleet's
	cr *cluster.Report // cluster's
}

// A column is one table column: its name and how it renders a row
// from that row's cells, in the order the constructor built them.
type column struct {
	name string
	val  func(row []cell) string
}

// run simulates every cell of s in parallel on the host, through
// fleet.ForEach and one template cache as fleet.RunAll does, and
// stores each outcome in its cell. Cells are deterministic and write
// only themselves, so the table is the same at any GOMAXPROCS. A
// failing cell's error (a *load.SpecError, say) replaces the sweep.
func (s *Sweep) run() (*Sweep, error) {
	var cells []*cell
	for _, row := range s.rows {
		for i := range row {
			cells = append(cells, &row[i])
		}
	}
	tc := load.NewTemplates()
	err := fleet.ForEach(fleet.PoolSize(len(cells)), len(cells), func(i int) (err error) {
		switch c := cells[i]; {
		case c.fleet != nil:
			c.fr, err = fleet.Run(*c.fleet)
		case c.cluster != nil:
			c.cr, err = cluster.Run(*c.cluster)
		default:
			c.m, err = tc.Run(c.cfg)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Render prints the header prose, then one table line per row.
func (s *Sweep) Render() string {
	table := make([][]string, 1+len(s.rows))
	for _, c := range s.cols {
		table[0] = append(table[0], c.name)
		for i, row := range s.rows {
			table[1+i] = append(table[1+i], c.val(row))
		}
	}
	return s.head + renderTable(table)
}

// ladder is the heap ladder of the sweeps over {4, 16, 64} MiB (E12,
// E16): the rungs up to maxHeap, or maxHeap alone when no rung fits.
func ladder(maxHeap uint64) []uint64 {
	var out []uint64
	for _, h := range []uint64{4 * MiB, 16 * MiB, 64 * MiB} {
		if h <= maxHeap {
			out = append(out, h)
		}
	}
	if len(out) == 0 {
		out = []uint64{maxHeap}
	}
	return out
}

// ratio is a/b, or 0 when b is not positive.
func ratio(a, b float64) float64 {
	if b > 0 {
		return a / b
	}
	return 0
}

// rate prints a per-virtual-second rate; ms prints virtual nanoseconds
// as milliseconds.
func rate(r float64) string { return fmt.Sprintf("%.0f", r) }
func ms(ns uint64) string   { return fmt.Sprintf("%.1fms", float64(ns)/1e6) }
