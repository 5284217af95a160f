package load

import (
	"fmt"
	"strings"

	"repro/internal/addrspace"
	"repro/internal/cost"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/sim"
)

// Server is one warmed machine: booted, its server heap mapped and
// dirtied, and — for a server shape — a pool of workers parked on it.
// A scenario machine is a Server whose Shape has no pool: Run measures
// one scenario pass on it. A ready-to-serve server is the same machine
// with Shape.Via and Shape.Pool set: sim/cluster runs one per cluster
// machine (the warm-up, pool creation included, is on the machine's
// virtual clock, so fork's Θ(heap) pool tax is in the measured
// scale-out latency), ServeBatch is one reconcile step's worth of
// traffic, and Drain is scale-down. sim/fleet's rolling wave uses one
// as a machine's replacement instance: the warm-up is the restart tax,
// and Run is the measured serve phase. The network cells' backends are
// Servers too, and so is a migration's destination: a machine with no
// heap and no pool, whose books are its boot state. Every Server comes
// from Templates, and every machine a run boots is one of a cell's
// Servers.
//
// A Server is single-goroutine: the caller serializes ServeBatch /
// Run / Drain. Distinct Servers are independent machines and may run
// host-parallel.
type Server struct {
	cfg Config
	sys *sim.System
	k   *kernel.Kernel
	// tpl is the template the machine was stamped from (nil when
	// cold-booted); release recycles the machine into it.
	tpl *sim.Template

	pool    []*sim.Process
	warm    warmup
	drained bool

	// The loop's tallies: what Run reports, and the high-water mark
	// PeakRSSBytes reads. serverCPU is the virtual CPU time the
	// SMPServer scenario's server process executed during the loop.
	requests, creations, failed uint64
	peakPages, serverCPU        uint64
}

// warmup is what a machine's warm-up leaves besides the machine: where
// its server heap lies, the warm-up's virtual time and page-table bill,
// and the post-warm-up resource baselines Drain must get back to.
type warmup struct {
	heapStart, heapBytes uint64
	nanos, ptes          uint64
	baseProcs            int
	basePages, baseCmt   uint64
}

// Batch is one ServeBatch's outcome.
type Batch struct {
	// Served and Failed count requests completed and lost in this
	// batch (failures are tolerated, as in chaos mode).
	Served, Failed int
	// Creations is worker processes created for this batch.
	Creations uint64
	// Nanos is the virtual time the batch consumed on the machine's
	// clock.
	Nanos uint64
}

// warm boots a machine of shape s and warms it for cfg: map and dirty
// the server heap, note the baselines Drain must get back to, then park
// s.Pool workers created through s.Via. It is the recipe every
// Template freezes and every cold machine repeats. Between boot and the
// heap it only reads clocks and counters, so a scenario machine warms
// boot → map → touch; the warm-up runs on the machine's virtual clock,
// which WarmupNanos reports. A shape with no heap and no pool — a
// migration destination — is its boot state, and so are its books.
func warm(cfg Config, s Shape) (*Server, error) {
	sys, err := boot(s)
	if err != nil {
		return nil, err
	}
	k := sys.Kernel()
	t0, pteBase := k.Elapsed(), k.Meter().PTECopies
	srv := &Server{cfg: cfg.withDefaults(), sys: sys, k: k}

	// The server's resident, dirty heap — what fork must duplicate
	// page-table entries for on every creation.
	if heap := s.MappedHeapBytes(); heap > 0 {
		space := sys.Host().Space()
		vma, err := space.Map(0, heap, addrspace.Read|addrspace.Write, addrspace.MapOpts{
			Kind: addrspace.KindAnon, Name: "server-heap", Huge: s.HugePages,
		})
		if err != nil {
			return nil, fmt.Errorf("load: map heap: %w", err)
		}
		if err := space.Touch(vma.Start, heap, addrspace.AccessWrite); err != nil {
			return nil, fmt.Errorf("load: dirty heap: %w", err)
		}
		srv.warm.heapStart, srv.warm.heapBytes = vma.Start, heap
	}
	srv.warm.baseProcs = k.ProcessCount()
	srv.warm.basePages, srv.warm.baseCmt = k.Phys().AllocatedPages(), k.Phys().Committed()
	for i := 0; i < s.Pool; i++ {
		w, err := sys.Command("true").Via(s.Via).Create()
		if err != nil {
			return nil, fmt.Errorf("load: warm pool worker %d via %v: %w", i, s.Via, err)
		}
		srv.pool = append(srv.pool, w)
	}
	srv.warm.nanos = uint64(k.Elapsed() - t0)
	srv.warm.ptes = k.Meter().PTECopies - pteBase
	srv.sample()
	return srv, nil
}

// sample records the physical-memory high-water mark — the package's
// one peak tracker; the loops call it at their peak-occupancy points.
func (s *Server) sample() {
	s.peakPages = max(s.peakPages, s.k.Phys().AllocatedPages())
}

// System is the warmed machine — exposed so callers (tests, the bench
// probes) can inspect the warmed state before Run.
func (s *Server) System() *sim.System { return s.sys }

// ServeBatch serves up to n requests through the closed loop (see
// Server.serve: a window of requests in flight, each a fresh worker
// via cfg.Via). When budgetNanos > 0 the server stops launching new
// requests once the batch has consumed that much virtual time —
// leftover requests are the caller's backlog — but always drains what
// is in flight, so the returned Nanos may overshoot the budget by up to
// one request. Failures (creation refused, worker lost) are tolerated
// and counted.
func (s *Server) ServeBatch(n int, budgetNanos uint64) (Batch, error) {
	if s.drained {
		return Batch{}, fmt.Errorf("load: ServeBatch on a drained server")
	}
	b, _ := s.serve(n, budgetNanos)
	s.sample()
	return b, nil
}

// WarmupNanos is the virtual time from boot to ready-to-serve: heap
// dirtying plus pool creation — the scale-out latency sim/cluster
// charges a new machine.
func (s *Server) WarmupNanos() uint64 { return s.warm.nanos }

// WarmupPTECopies is the warm-up's page-table bill: under fork each
// pool worker duplicates the freshly dirtied heap's page tables.
func (s *Server) WarmupPTECopies() uint64 { return s.warm.ptes }

// PeakRSSBytes is the resident-memory high-water mark observed so far;
// a measured run restarts it when its cell opens.
func (s *Server) PeakRSSBytes() uint64 { return s.peakPages * uint64(mem.PageSize) }

// Run executes one measured pass of cfg's scenario from the current
// virtual instant, with whatever pool the machine parked resident, so
// its footprint is in the peak RSS: a cell of this one machine, which
// the caller still drains. The warm-up's bill is WarmupNanos and
// WarmupPTECopies, not the pass's.
func (s *Server) Run() (*Metrics, error) {
	if s.drained {
		return nil, fmt.Errorf("load: Run on a drained server")
	}
	return (&cell{cfg: s.cfg, servers: []*Server{s}}).pass()
}

// pass is one measured single-machine pass on the cell's one machine:
// cfg.Faults is armed (only now, so warm-up stays clean and the
// measured loop runs under the schedule), the tallies are zeroed and
// the window opened, the loop runs, and the cell closes into the
// metrics, with the machine's CPU utilisation and server CPU time.
func (c *cell) pass() (*Metrics, error) {
	s, cfg := c.servers[0], c.cfg
	if cfg.Faults != nil {
		s.sys.SetFaultSchedule(cfg.Faults)
	}
	s.requests, s.creations, s.failed, s.serverCPU = 0, 0, 0, 0
	c.open()
	meter := s.k.Meter()
	busyBase := make([]cost.Ticks, cfg.CPUs)
	clockBase := make([]cost.Ticks, cfg.CPUs)
	for i := range busyBase {
		busyBase[i], clockBase[i] = meter.CPUBusy(i), meter.CPUClock(i)
	}
	t0 := s.k.Elapsed()

	var err error
	switch cfg.Scenario {
	case Prefork, BuildFarm:
		// The closed loop. Chaos mode (cfg.Faults) counts its lost
		// requests; a clean run fails on the first.
		var b Batch
		b, err = s.serve(cfg.Requests, 0)
		s.requests, s.creations, s.failed = uint64(b.Served), b.Creations, uint64(b.Failed)
		if cfg.Faults != nil {
			err = nil
		}
	case Pipeline:
		err = s.pipeline()
	case Checkpoint:
		err = s.checkpoint()
	case ForkStorm:
		err = s.forkstorm()
	case SMPServer:
		err = s.smpserver()
	default:
		err = fmt.Errorf("load: unknown scenario %q", cfg.Scenario)
	}
	if err != nil {
		return nil, fmt.Errorf("load: %s via %v: %w", cfg.Scenario, cfg.Via, err)
	}

	m := c.close(&Metrics{
		Requests:       s.requests,
		Creations:      s.creations,
		FailedRequests: s.failed,
		VirtualNanos:   uint64(s.k.Elapsed() - t0),
		CPUUtilization: make([]float64, cfg.CPUs),
		ServerCPUNanos: s.serverCPU,
	})
	for i := range m.CPUUtilization {
		if advanced := meter.CPUClock(i) - clockBase[i]; advanced > 0 {
			m.CPUUtilization[i] = float64(meter.CPUBusy(i)-busyBase[i]) / float64(advanced)
		}
	}
	return m, nil
}

// Drain tears down the worker pool — scale-down — and checks the
// resource books: a leak-free strategy returns process, frame, and
// commit counts to the post-warm-up baseline, and Drain names each one
// that did not in its error. Either way the machine is retired: a
// stamped one recycles into its template's next stamp (host-side
// only), a cold one is dropped, and the handles are nilled so nothing
// late can reach the recycled shell. Every machine a run boots retires
// through Drain: a run's cell drains its scenario machine, network
// backends, migration source and destination on every path, and
// sim/fleet and sim/cluster drain the Servers they hold (a template's
// source machine, once Snapshot has frozen it, is simply dropped). The
// Server cannot serve after it, and calling it twice is an error.
func (s *Server) Drain() error {
	if s.drained {
		return fmt.Errorf("load: Drain on a drained server")
	}
	for _, p := range s.pool {
		p.Destroy()
	}
	s.pool = nil
	var leaks []string
	book := func(name string, base, end uint64) {
		if end != base {
			leaks = append(leaks, fmt.Sprintf("%s %d -> %d", name, base, end))
		}
	}
	book("processes", uint64(s.warm.baseProcs), uint64(s.k.ProcessCount()))
	book("frames", s.warm.basePages, s.k.Phys().AllocatedPages())
	book("commit", s.warm.baseCmt, s.k.Phys().Committed())
	if s.tpl != nil {
		s.tpl.Release(s.sys)
	}
	s.sys, s.k, s.drained = nil, nil, true
	if len(leaks) > 0 {
		return fmt.Errorf("load: drain via %v is off its post-warm-up books: %s",
			s.cfg.Via, strings.Join(leaks, ", "))
	}
	return nil
}
