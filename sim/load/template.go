package load

import (
	"fmt"
	"sync"

	"repro/sim"
)

// Shape is a warm machine shape: everything the boot-and-warm phase of
// a scenario run depends on. Two Configs with the same Shape warm
// byte-identical machines, whatever their scenario, strategy, or
// request volume — which is why one frozen Template per Shape can
// serve every scenario in a sweep.
type Shape struct {
	CPUs      int
	RAMBytes  uint64
	HeapBytes uint64
	HugePages bool
}

// Shape reports cfg's resolved warm shape.
func (cfg Config) Shape() Shape {
	cfg = cfg.withDefaults()
	return Shape{
		CPUs:      cfg.CPUs,
		RAMBytes:  cfg.RAMBytes,
		HeapBytes: cfg.HeapBytes,
		HugePages: cfg.HugePages,
	}
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
	return Prepare(sys, cfg)
}

// Template is a frozen machine warmed for one Shape: booted, userland
// installed, server heap mapped and dirtied — the state Run reaches
// just before it zeroes the counters and enters the scenario loop.
// Stamping a run out of it skips the Θ(heap) warm-up the cold path
// repeats per machine; virtual-time metrics are unchanged because a
// clone is logically the warmed machine itself. Safe for concurrent
// Stamp calls.
type Template struct {
	shape     Shape
	tpl       *sim.Template
	heapStart uint64
	heapBytes uint64
}

// NewTemplate warms one machine for cfg's Shape — the cold path's
// recipe exactly — and freezes it, so a stamped run and a cold run
// produce byte-identical Metrics.
func NewTemplate(cfg Config) (*Template, error) {
	p, err := warm(cfg)
	if err != nil {
		return nil, err
	}
	return freeze(p)
}

// freeze snapshots a warmed machine into a Template of its Shape.
func freeze(p *Prepared) (*Template, error) {
	tpl, err := p.sys.Snapshot()
	if err != nil {
		return nil, err
	}
	return &Template{shape: p.cfg.Shape(), tpl: tpl, heapStart: p.heapStart, heapBytes: p.heapBytes}, nil
}

// Shape reports the template's warm shape.
func (t *Template) Shape() Shape { return t.shape }

// Stamp clones the template into a fresh machine prepared for cfg's
// scenario. cfg must resolve to the template's Shape.
func (t *Template) Stamp(cfg Config) (*Prepared, error) {
	cfg = cfg.withDefaults()
	if s := cfg.Shape(); s != t.shape {
		return nil, fmt.Errorf("load: stamp shape %+v from template shape %+v", s, t.shape)
	}
	sys, err := t.tpl.Clone()
	if err != nil {
		return nil, err
	}
	return &Prepared{cfg: cfg, sys: sys, heapStart: t.heapStart, heapBytes: t.heapBytes, tpl: t.tpl}, nil
}

// Run executes one single-machine scenario on a machine stamped from
// the template, then recycles the machine into the template's next
// stamp. Templates.Run is the dispatch that also routes the network
// cells and vets fault support.
func (t *Template) Run(cfg Config) (*Metrics, error) {
	p, err := t.Stamp(cfg)
	if err != nil {
		return nil, err
	}
	return p.runOnce()
}

// ServerShape is the warm shape of a prefork Server: everything
// NewServer's boot-and-warm depends on, pool strategy and size
// included.
type ServerShape struct {
	Via       sim.Strategy
	CPUs      int
	RAMBytes  uint64
	HeapBytes uint64
	HugePages bool
	Workers   int
}

// ServerShape reports cfg's resolved server warm shape (Workers
// resolved to NewServer's 4×CPUs default when zero).
func (cfg Config) ServerShape() ServerShape {
	workers := cfg.Workers
	cfg.Scenario = Prefork
	cfg = cfg.withDefaults()
	if workers <= 0 {
		workers = 4 * cfg.CPUs
	}
	return ServerShape{
		Via:       cfg.Via,
		CPUs:      cfg.CPUs,
		RAMBytes:  cfg.RAMBytes,
		HeapBytes: cfg.HeapBytes,
		HugePages: cfg.HugePages,
		Workers:   workers,
	}
}

// ServerTemplate is a frozen ready-to-serve Server: booted, heap
// dirtied, worker pool pre-created through the configured strategy.
// Stamping reproduces NewServer's post-warm-up state — warm-up cost,
// baselines, and parked pool included — without re-paying the warm-up
// host time per machine.
type ServerTemplate struct {
	shape    ServerShape
	machine  *Template
	poolPids []int
	warm     warmup
}

// NewServerTemplate warms one server for cfg's ServerShape and
// freezes it.
func NewServerTemplate(cfg Config) (*ServerTemplate, error) {
	s, err := NewServer(cfg)
	if err != nil {
		return nil, err
	}
	machine, err := freeze(s.p)
	if err != nil {
		return nil, err
	}
	st := &ServerTemplate{shape: cfg.ServerShape(), machine: machine, warm: s.warm}
	for _, p := range s.pool {
		st.poolPids = append(st.poolPids, p.Pid())
	}
	return st, nil
}

// Stamp clones a fresh, independent Server from the template,
// re-adopting the parked worker pool by pid and taking cfg's
// serve-phase knobs (Requests, Window, RequestWorkMiB). cfg must
// resolve to the template's ServerShape.
func (t *ServerTemplate) Stamp(cfg Config) (*Server, error) {
	if s := cfg.ServerShape(); s != t.shape {
		return nil, fmt.Errorf("load: stamp server shape %+v from template shape %+v", s, t.shape)
	}
	cfg.Scenario = Prefork
	p, err := t.machine.Stamp(cfg)
	if err != nil {
		return nil, err
	}
	s := &Server{p: p, k: p.sys.Kernel(), warm: t.warm}
	for _, pid := range t.poolPids {
		w, err := p.sys.FindProcess(pid)
		if err != nil {
			return nil, fmt.Errorf("load: re-adopt pool worker: %w", err)
		}
		s.pool = append(s.pool, w)
	}
	s.observe()
	return s, nil
}

// Templates is the one cache of warmed machines: a frozen Template per
// Shape (single-machine runs, migration sources) and a frozen
// ServerTemplate per ServerShape (network-cell backends, rolling-wave
// replacements, cluster nodes). Each shape warms once; every later
// machine of that shape is stamped from it. A nil *Templates
// cold-boots on every path. Safe for concurrent use, and deterministic:
// a template's content is a pure function of its shape, so cache hits
// and misses cannot change any result.
type Templates struct {
	mu      sync.Mutex
	shapes  map[Shape]*Template
	servers map[ServerShape]*ServerTemplate
}

// NewTemplates returns an empty cache.
func NewTemplates() *Templates {
	return &Templates{shapes: map[Shape]*Template{}, servers: map[ServerShape]*ServerTemplate{}}
}

// cached returns m[key], warming it on first use. The warm-up runs
// under tc.mu, so each shape warms exactly once.
func cached[K comparable, T any](tc *Templates, m map[K]*T, key K, build func() (*T, error)) (*T, error) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if t, ok := m[key]; ok {
		return t, nil
	}
	t, err := build()
	if err != nil {
		return nil, err
	}
	m[key] = t
	return t, nil
}

// Get returns the cached template for cfg's Shape, warming one on the
// first request (a nil cache warms an uncached one).
func (tc *Templates) Get(cfg Config) (*Template, error) {
	if tc == nil {
		return NewTemplate(cfg)
	}
	return cached(tc, tc.shapes, cfg.Shape(), func() (*Template, error) { return NewTemplate(cfg) })
}

// Server stamps a ready-to-serve Server for cfg from the cached
// template for its ServerShape, warming one on first use. A nil cache
// cold-boots it with NewServer.
func (tc *Templates) Server(cfg Config) (*Server, error) {
	if tc == nil {
		return NewServer(cfg)
	}
	t, err := cached(tc, tc.servers, cfg.ServerShape(), func() (*ServerTemplate, error) { return NewServerTemplate(cfg) })
	if err != nil {
		return nil, err
	}
	return t.Stamp(cfg)
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
// the network cells get their own topology, and fault schedules are
// vetted here.
func (tc *Templates) Run(cfg Config) (*Metrics, error) {
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
	return p.runOnce()
}
