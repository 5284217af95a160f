package load

import (
	"fmt"
	"sync"

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

// boot cold-boots a machine of cfg's resolved shape with the scenario
// userland. It is the package's only machine boot: every cold run,
// Server, migration destination, and template warm-up starts here, so
// a stamped machine and a cold one cannot differ in what they booted.
func boot(cfg Config) (*sim.System, error) {
	return sim.NewSystem(
		sim.WithRAM(cfg.RAMBytes),
		sim.WithCPUs(cfg.CPUs),
		sim.WithUserland("true", "echo", "cat", "hog", "smpspin"),
	)
}

// warm boots a machine for cfg's Shape and dirties its server heap:
// the recipe every Template freezes and every cold run repeats.
func warm(cfg Config) (*Prepared, error) {
	cfg = cfg.withDefaults()
	sys, err := boot(cfg)
	if err != nil {
		return nil, err
	}
	return prepare(sys, cfg)
}

// Template is a frozen machine warmed for one Shape: booted, userland
// installed, server heap mapped and dirtied — the state Run reaches
// just before it zeroes the counters and enters the scenario loop. A
// server's template is also frozen with its worker pool parked, and
// records the warm-up that pool cost. Stamping a machine out of it
// skips the Θ(heap) warm-up the cold path repeats per machine;
// virtual-time metrics are unchanged because a clone is logically the
// warmed machine itself. Safe for concurrent Stamp calls.
type Template struct {
	shape     Shape
	tpl       *sim.Template
	heapStart uint64
	heapBytes uint64

	// pool is a server template's parked workers, by pid, and warm its
	// warm-up record; both are empty for a scenario machine.
	pool []int
	warm warmup
}

// newTemplate warms one machine for cfg's Shape — the cold path's
// recipe exactly — and freezes it, so a stamped run and a cold run
// produce byte-identical Metrics.
func newTemplate(cfg Config) (*Template, error) {
	p, err := warm(cfg)
	if err != nil {
		return nil, err
	}
	return freeze(p, cfg.Shape())
}

// newServerTemplate warms one Server for cfg's server shape and
// freezes it with its parked pool and warm-up record, so a Server
// stamped from it reproduces NewServer's post-warm-up state — warm-up
// cost, baselines, and pool included — without re-paying the warm-up
// host time per machine.
func newServerTemplate(cfg Config) (*Template, error) {
	s, err := NewServer(cfg)
	if err != nil {
		return nil, err
	}
	t, err := freeze(s.p, cfg.serverShape())
	if err != nil {
		return nil, err
	}
	t.warm = s.warm
	for _, w := range s.pool {
		t.pool = append(t.pool, w.Pid())
	}
	return t, nil
}

// freeze snapshots a warmed machine into a Template of shape s.
func freeze(p *Prepared, s Shape) (*Template, error) {
	tpl, err := p.sys.Snapshot()
	if err != nil {
		return nil, err
	}
	return &Template{shape: s, tpl: tpl, heapStart: p.heapStart, heapBytes: p.heapBytes}, nil
}

// Stamp clones the template into a fresh machine prepared for cfg's
// scenario. cfg must resolve to the template's Shape.
func (t *Template) Stamp(cfg Config) (*Prepared, error) {
	return t.clone(cfg, cfg.Shape())
}

// clone stamps a fresh machine for cfg, whose resolved shape s must be
// the template's.
func (t *Template) clone(cfg Config, s Shape) (*Prepared, error) {
	if s != t.shape {
		return nil, fmt.Errorf("load: stamp shape %+v from template shape %+v", s, t.shape)
	}
	sys, err := t.tpl.Clone()
	if err != nil {
		return nil, err
	}
	return &Prepared{cfg: cfg.withDefaults(), sys: sys, heapStart: t.heapStart, heapBytes: t.heapBytes, tpl: t.tpl}, nil
}

// server clones a fresh, independent Server from a server template,
// re-adopting the parked worker pool by pid and taking cfg's
// serve-phase knobs (Requests, Window, RequestWorkMiB). cfg must
// resolve to the template's server shape.
func (t *Template) server(cfg Config) (*Server, error) {
	s := cfg.serverShape()
	cfg.Scenario = Prefork
	p, err := t.clone(cfg, s)
	if err != nil {
		return nil, err
	}
	srv := newServer(p, t.warm)
	for _, pid := range t.pool {
		w, err := p.sys.FindProcess(pid)
		if err != nil {
			return nil, fmt.Errorf("load: re-adopt pool worker: %w", err)
		}
		srv.pool = append(srv.pool, w)
	}
	srv.d.sample()
	return srv, nil
}

// Templates is the one cache of warmed machines: a frozen Template per
// Shape — scenario machines for single-machine runs and migration
// sources, servers with their pools parked for network-cell backends,
// rolling-wave replacements, and cluster nodes. Each shape warms once;
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

// template returns the cached template for shape s, warming it with
// build on first use. The warm-up runs under tc.mu, so each shape
// warms exactly once.
func (tc *Templates) template(s Shape, build func() (*Template, error)) (*Template, error) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if t, ok := tc.shapes[s]; ok {
		return t, nil
	}
	t, err := build()
	if err != nil {
		return nil, err
	}
	tc.shapes[s] = t
	return t, nil
}

// Get returns the cached template for cfg's Shape, warming one on the
// first request (a nil cache warms an uncached one).
func (tc *Templates) Get(cfg Config) (*Template, error) {
	if tc == nil {
		return newTemplate(cfg)
	}
	return tc.template(cfg.Shape(), func() (*Template, error) { return newTemplate(cfg) })
}

// Server stamps a ready-to-serve Server for cfg from the cached
// template of its server shape, warming one on first use. A nil cache
// cold-boots it with NewServer.
func (tc *Templates) Server(cfg Config) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if tc == nil {
		return NewServer(cfg)
	}
	t, err := tc.template(cfg.serverShape(), func() (*Template, error) { return newServerTemplate(cfg) })
	if err != nil {
		return nil, err
	}
	return t.server(cfg)
}

// stamp returns a machine warmed for cfg's Shape: stamped from the
// cached template, or booted and warmed cold when tc is nil.
func (tc *Templates) stamp(cfg Config) (*Prepared, error) {
	if tc == nil {
		return warm(cfg)
	}
	t, err := tc.Get(cfg)
	if err != nil {
		return nil, err
	}
	return t.Stamp(cfg)
}

// Run executes one scenario on machines from the cache — stamped from
// their templates, or cold-booted when tc is nil, which is what the
// package-level Run does. It is the package's one scenario dispatch:
// counts are vetted, the network cells get their own topology, and
// fault schedules are vetted here.
func (tc *Templates) Run(cfg Config) (*Metrics, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	switch {
	case cfg.Scenario.Distributed():
		return runNetCell(cfg, tc)
	case cfg.Scenario == Migrate:
		// Also a network cell: cfg.Faults is the wire's schedule.
		return runMigrateCell(cfg, tc)
	case cfg.Faults != nil && cfg.Scenario != Prefork:
		return nil, fmt.Errorf("load: scenario %s does not support fault injection (only prefork and the distributed scenarios are failure-tolerant)", cfg.Scenario)
	}
	p, err := tc.stamp(cfg)
	if err != nil {
		return nil, err
	}
	m, err := p.Run()
	if err != nil {
		return nil, err
	}
	// The Metrics are plain data: the machine can be recycled.
	p.release()
	return m, nil
}
