package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/kernel"
	"repro/internal/ulib"
	"repro/sim/cluster"
	"repro/sim/fleet"
	"repro/sim/load"
)

// A Sweep is one experiment as data: the prose printed above its
// table, rows of cells to simulate, the columns that render each row,
// and at most one piece of text printed after the table. Figure 1,
// E4, E7 and the ablations sweep creation cells; E8–E12, E15 and E16
// sweep load, fleet and cluster cells. Each experiment's constructor
// builds its sweep from the clamped -max and runs it.
type Sweep struct {
	head string
	rows [][]cell
	cols []column
	tail string
}

// A cell is one simulation in a sweep row: a load.Config, a
// fleet.Spec (E10) or cluster.Spec (E12) run whole, or one creation.
// run stores the outcome beside the spec that produced it.
type cell struct {
	cfg     load.Config
	fleet   *fleet.Spec
	cluster *cluster.Spec
	create  *creation

	m  *load.Metrics   // cfg's outcome
	fr *fleet.Result   // fleet's
	cr *cluster.Report // cluster's
}

// A creation is a creation cell: a minimal child made by method from
// a parent whose anonymous working set of size bytes is dirty, on
// 4 KiB pages or, when huge, on 2 MiB pages. measure fills virt and
// ptes.
type creation struct {
	size   uint64
	huge   bool
	method core.Method

	virt cost.Ticks // the timed creation's virtual time
	ptes uint64     // the page-table entries it copied
}

// measure builds c's parent on its own default 4 GiB kernel, creates
// one warm-up child, then times one more creation. The warm-up pays
// fork's one-time downgrade of the parent's PTEs to read-only; every
// later creation costs exactly what the second does
// (TestCreationSteadyState), so one timed creation is the steady state
// the paper plots.
func (c *creation) measure() error {
	k, parent, err := c.boot()
	if err != nil {
		return err
	}
	if _, _, err := c.once(k, parent); err != nil {
		return err
	}
	c.virt, c.ptes, err = c.once(k, parent)
	return err
}

// boot is c's machine: a default kernel with /bin/true installed and
// c's dirty parent.
func (c *creation) boot() (*kernel.Kernel, *kernel.Process, error) {
	k := newKernel(kernel.Options{})
	if err := ulib.Install(k, "true", "/bin/true"); err != nil {
		return nil, nil, err
	}
	parent, err := buildParent(k, "parent", c.size, c.huge)
	return k, parent, err
}

// once creates and destroys one child of parent by c's method, and
// returns the creation's virtual time and the PTEs it copied.
func (c *creation) once(k *kernel.Kernel, parent *kernel.Process) (cost.Ticks, uint64, error) {
	ptes := k.Meter().PTECopies
	virt, err := core.MeasureCreation(k, parent, c.method, "/bin/true")
	if err != nil {
		return 0, 0, fmt.Errorf("%v from a %s parent: %w", c.method, load.HumanBytes(c.size), err)
	}
	return virt, k.Meter().PTECopies - ptes, nil
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
		case c.create != nil:
			err = c.create.measure()
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

// Render prints the header prose, one table line per row, and the
// tail.
func (s *Sweep) Render() string {
	table := make([][]string, 1+len(s.rows))
	for _, c := range s.cols {
		table[0] = append(table[0], c.name)
		for i, row := range s.rows {
			table[1+i] = append(table[1+i], c.val(row))
		}
	}
	return s.head + renderTable(table) + s.tail
}

// creations is a row of creation cells from one parent size and page
// size, one cell per method.
func creations(size uint64, huge bool, methods ...core.Method) []cell {
	row := make([]cell, len(methods))
	for i, m := range methods {
		row[i].create = &creation{size: size, huge: huge, method: m}
	}
	return row
}

// parentSize is the first column of every creation sweep.
var parentSize = column{"parent size", func(r []cell) string { return load.HumanBytes(r[0].create.size) }}

// creationCol is a column that renders creation cell i of each row
// through val, or "-" in a row that stops short of cell i.
func creationCol(name string, i int, val func(*creation) string) column {
	return column{name, func(r []cell) string {
		if i >= len(r) {
			return "-"
		}
		return val(r[i].create)
	}}
}

// us prints a creation's virtual time in microseconds; times prints
// a's as a multiple of b's.
func us(c *creation) string       { return fmt.Sprintf("%.1fµs", c.virt.Micros()) }
func times(a, b *creation) string { return fmt.Sprintf("%.1fx", float64(a.virt)/float64(b.virt)) }

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
