package load

import (
	"fmt"
	"sync"

	"repro/internal/mem"
	"repro/sim"
)

// Shape is a warm machine shape: everything the boot-and-warm phase of
// a machine depends on. Two Configs with the same Shape warm
// byte-identical machines, whatever their scenario, strategy, or
// request volume — which is why one frozen Template per Shape can
// serve every scenario in a sweep.
type Shape struct {
	CPUs      int
	RAMBytes  uint64
	HeapBytes uint64
	HugePages bool

	// Via and Pool are a Server's parked worker pool: the strategy it
	// was pre-created through and its size. Both are zero for a
	// scenario machine, which parks no pool, so every scenario and
	// strategy of one machine shape still shares one template.
	Via  sim.Strategy
	Pool int
}

// MappedHeapBytes reports the heap a machine of shape s maps and
// dirties: HeapBytes rounded up to the heap's page, 2 MiB with
// HugePages and 4 KiB without. Every report of a warmed machine's heap
// names this figure, not the requested one.
func (s Shape) MappedHeapBytes() uint64 {
	ps := uint64(mem.PageSize)
	if s.HugePages {
		ps = mem.HugeSize
	}
	return (s.HeapBytes + ps - 1) &^ (ps - 1)
}

// Shape reports cfg's resolved warm shape as a scenario machine.
func (cfg Config) Shape() Shape {
	cfg = cfg.withDefaults()
	return Shape{
		CPUs:      cfg.CPUs,
		RAMBytes:  cfg.RAMBytes,
		HeapBytes: cfg.HeapBytes,
		HugePages: cfg.HugePages,
	}
}

// serverShape reports cfg's resolved warm shape as a Server: the
// machine's shape plus its pool of Workers (default 4×CPUs — a server
// keeps spare workers beyond its steady-state window).
func (cfg Config) serverShape() Shape {
	s := cfg.Shape()
	s.Via, s.Pool = cfg.Via, cfg.Workers
	if s.Pool <= 0 {
		s.Pool = 4 * s.CPUs
	}
	return s
}

// boot cold-boots a machine of shape s with the scenario userland. It
// is the package's only machine boot: every warm-up starts here, a
// migration destination's included, so a stamped machine and a cold
// one cannot differ in what they booted.
func boot(s Shape) (*sim.System, error) {
	return sim.NewSystem(
		sim.WithRAM(s.RAMBytes),
		sim.WithCPUs(s.CPUs),
		sim.WithUserland("true", "echo", "cat", "hog", "smpspin"),
	)
}

// Template is a frozen Server: a machine warmed for one Shape — booted,
// userland installed, server heap mapped and dirtied, and a server
// shape's worker pool parked — the state Run reaches just before it
// zeroes the counters and enters the scenario loop, with the warm-up
// record that state cost. Stamping a machine out of it skips the
// Θ(heap) warm-up the cold path repeats per machine; virtual-time
// metrics are unchanged because a clone is logically the warmed machine
// itself. Safe for concurrent Stamp calls.
type Template struct {
	shape Shape
	tpl   *sim.Template
	warm  warmup

	// pool is the parked workers, by pid; empty for a scenario
	// machine.
	pool []int
}

// newTemplate warms one machine of shape s for cfg — the cold path's
// recipe exactly — and freezes it with its pool and warm-up record, so
// a stamped machine and a cold one produce byte-identical Metrics.
func newTemplate(cfg Config, s Shape) (*Template, error) {
	srv, err := warm(cfg, s)
	if err != nil {
		return nil, err
	}
	tpl, err := srv.sys.Snapshot()
	if err != nil {
		return nil, err
	}
	t := &Template{shape: s, tpl: tpl, warm: srv.warm}
	for _, w := range srv.pool {
		t.pool = append(t.pool, w.Pid())
	}
	return t, nil
}

// Stamp clones the template into a fresh machine warmed for cfg's
// scenario. cfg must resolve to the template's Shape.
func (t *Template) Stamp(cfg Config) (*Server, error) {
	return t.stamp(cfg, cfg.Shape())
}

// stamp clones a fresh, independent Server for cfg, whose shape s must
// be the template's, and re-adopts the parked pool by pid.
func (t *Template) stamp(cfg Config, s Shape) (*Server, error) {
	if s != t.shape {
		return nil, fmt.Errorf("load: stamp shape %+v from template shape %+v", s, t.shape)
	}
	sys, err := t.tpl.Clone()
	if err != nil {
		return nil, err
	}
	srv := &Server{cfg: cfg.withDefaults(), sys: sys, k: sys.Kernel(), tpl: t.tpl, warm: t.warm}
	for _, pid := range t.pool {
		w, err := sys.FindProcess(pid)
		if err != nil {
			return nil, fmt.Errorf("load: re-adopt pool worker: %w", err)
		}
		srv.pool = append(srv.pool, w)
	}
	srv.sample()
	return srv, nil
}

// Templates is the one cache of warmed machines: a frozen Template per
// Shape — scenario machines for single-machine runs and migration
// sources, empty machines for migration destinations, and servers with
// their pools parked for network-cell backends, rolling-wave
// replacements and cluster nodes. Each shape warms once;
// every later machine of that shape is stamped from it. A nil
// *Templates cold-boots on every path. Safe for concurrent use, and
// deterministic: a template's content is a pure function of its shape,
// so cache hits and misses cannot change any result.
type Templates struct {
	mu     sync.Mutex
	shapes map[Shape]*Template
}

// NewTemplates returns an empty cache.
func NewTemplates() *Templates {
	return &Templates{shapes: map[Shape]*Template{}}
}

// template returns the template of shape s for cfg: the cached one,
// warmed on first use (under tc.mu, so each shape warms exactly once),
// or an uncached one when tc is nil.
func (tc *Templates) template(cfg Config, s Shape) (*Template, error) {
	if tc == nil {
		return newTemplate(cfg, s)
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if t, ok := tc.shapes[s]; ok {
		return t, nil
	}
	t, err := newTemplate(cfg, s)
	if err != nil {
		return nil, err
	}
	tc.shapes[s] = t
	return t, nil
}

// Get returns the cached template for cfg's Shape, warming one on the
// first request (a nil cache warms an uncached one).
func (tc *Templates) Get(cfg Config) (*Template, error) {
	return tc.template(cfg, cfg.Shape())
}

// machine returns a Server of shape s warmed for cfg: stamped from the
// cached template, or booted and warmed cold when tc is nil.
func (tc *Templates) machine(cfg Config, s Shape) (*Server, error) {
	if tc == nil {
		return warm(cfg, s)
	}
	t, err := tc.template(cfg, s)
	if err != nil {
		return nil, err
	}
	return t.stamp(cfg, s)
}

// Server stamps a ready-to-serve Server for cfg from the cached
// template of its server shape, warming one on first use; a nil cache
// cold-boots it. cfg.Workers sizes the pool (default 4×CPUs — a server
// keeps spare workers beyond its steady-state window), and cfg.Scenario
// must be empty or Prefork: a Server serves prefork traffic.
func (tc *Templates) Server(cfg Config) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Scenario != "" && cfg.Scenario != Prefork {
		return nil, &SpecError{Spec: "load.Config", Field: "Scenario",
			Reason: fmt.Sprintf("%q (a Server serves prefork traffic only)", cfg.Scenario)}
	}
	cfg.Scenario = Prefork
	return tc.machine(cfg, cfg.serverShape())
}

// Run executes one scenario on machines from the cache — stamped from
// their templates, or cold-booted when tc is nil, which is what the
// package-level Run does. It is the package's one scenario dispatch:
// counts and fault schedules are vetted here, every scenario measures
// through one cell, and the cell's machines are retired once the run
// ends, however it ends; a machine off its post-warm-up books fails a
// run that had not failed already.
func (tc *Templates) Run(cfg Config) (m *Metrics, err error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	c := &cell{cfg: cfg}
	defer func() {
		if derr := c.drain(); derr != nil && err == nil {
			m, err = nil, derr
		}
	}()
	switch {
	case cfg.Scenario.Distributed():
		return c.network(tc)
	case cfg.Scenario == Migrate:
		// Also a network cell: cfg.Faults is the wire's schedule.
		return c.migrate(tc)
	case cfg.Faults != nil && cfg.Scenario != Prefork:
		return nil, fmt.Errorf("load: scenario %s does not support fault injection (only prefork and the distributed scenarios are failure-tolerant)", cfg.Scenario)
	}
	if err := c.add(tc.machine(cfg, cfg.Shape())); err != nil {
		return nil, err
	}
	return c.pass()
}
