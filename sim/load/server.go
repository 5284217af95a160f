package load

import (
	"fmt"

	"repro/internal/mem"
	"repro/sim"
)

// Server is a persistent prefork-style request server on its own
// machine: boot it once, then serve traffic in batches interleaved
// with an external control loop. sim/cluster runs one Server per
// cluster machine — NewServer is the machine's warm-up (boot, dirty
// heap, pre-created worker pool, all on the machine's virtual clock,
// so fork's Θ(heap) pool tax is in the measured scale-out latency),
// ServeBatch is one reconcile step's worth of traffic, and Drain is
// scale-down (the leak invariant checks its books). sim/fleet's rolling
// wave uses one as a machine's replacement instance: the warm-up is the
// restart tax, and Run is the measured serve phase. The network cells'
// backends are Servers too.
//
// A Server is single-goroutine: the caller serializes ServeBatch /
// Run / Drain. Distinct Servers are independent machines and may run
// host-parallel.
type Server struct {
	// p is the warmed machine: its resolved Config, its server heap,
	// and the template it was stamped from (nil when cold-booted),
	// which Drain recycles the machine into once the books are closed.
	p *Prepared
	// d is the server's request loop: every ServeBatch runs through
	// it, and its high-water mark is the server's peak RSS.
	d       *driver
	pool    []*sim.Process
	warm    warmup
	drained bool
}

// warmup is a server's warm-up record: its virtual time and page-table
// bill, and the post-warm-up resource baselines Drain must get back to.
type warmup struct {
	nanos, ptes        uint64
	baseProcs          int
	basePages, baseCmt uint64
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

// DrainStats is the scale-down bookkeeping: resource counters at the
// post-warm-up baseline and after the pool teardown. A leak-free
// strategy returns every End counter to its Base.
type DrainStats struct {
	BaseProcs, EndProcs   int
	BasePages, EndPages   uint64
	BaseCommit, EndCommit uint64
}

// NewServer boots a machine and warms it to ready-to-serve: map and
// dirty the server heap, then pre-create the parked worker pool
// through cfg.Via. cfg.Workers sizes the pool (default 4×CPUs — a
// server keeps spare workers beyond its steady-state window);
// cfg.Scenario must be empty or Prefork. The warm-up runs on the
// machine's virtual clock; WarmupNanos reports it.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Scenario != "" && cfg.Scenario != Prefork {
		return nil, fmt.Errorf("load: Server serves prefork traffic only, not %q", cfg.Scenario)
	}
	cfg.Scenario = Prefork
	workers := cfg.serverShape().Pool
	cfg = cfg.withDefaults()
	sys, err := boot(cfg)
	if err != nil {
		return nil, err
	}
	k := sys.Kernel()

	t0, pteBase := k.Elapsed(), k.Meter().PTECopies
	p, err := prepare(sys, cfg)
	if err != nil {
		return nil, err
	}
	s := newServer(p, warmup{
		baseProcs: k.ProcessCount(),
		basePages: k.Phys().AllocatedPages(),
		baseCmt:   k.Phys().Committed(),
	})
	for i := 0; i < workers; i++ {
		w, err := sys.Command("true").Via(cfg.Via).Create()
		if err != nil {
			s.teardown()
			return nil, fmt.Errorf("load: warm pool worker %d via %v: %w", i, cfg.Via, err)
		}
		s.pool = append(s.pool, w)
	}
	s.warm.nanos = uint64(k.Elapsed() - t0)
	s.warm.ptes = k.Meter().PTECopies - pteBase
	s.d.sample()
	return s, nil
}

// newServer wraps a warmed machine with its warm-up record and its
// request loop.
func newServer(p *Prepared, w warmup) *Server {
	return &Server{p: p, d: p.driver(), warm: w}
}

// ServeBatch serves up to n requests through the closed loop (see
// driver.serve: a window of requests in flight, each a fresh worker
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
	b, _ := s.d.serve(n, budgetNanos)
	s.d.sample()
	return b, nil
}

// WarmupNanos is the virtual time from boot to ready-to-serve: heap
// dirtying plus pool creation — the scale-out latency sim/cluster
// charges a new machine.
func (s *Server) WarmupNanos() uint64 { return s.warm.nanos }

// WarmupPTECopies is the warm-up's page-table bill: under fork each
// pool worker duplicates the freshly dirtied heap's page tables.
func (s *Server) WarmupPTECopies() uint64 { return s.warm.ptes }

// PeakRSSBytes is the resident-memory high-water mark observed so far.
func (s *Server) PeakRSSBytes() uint64 { return s.d.peakPages * uint64(mem.PageSize) }

// Run serves one measured scenario pass on the server's machine —
// cfg.Requests prefork requests, measured exactly as Prepared.Run
// measures a single-machine run — with the warm pool resident, so its
// footprint is in the peak RSS. The pass's counters start at zero: the
// warm-up's bill is WarmupNanos and WarmupPTECopies, not the pass's.
func (s *Server) Run() (*Metrics, error) {
	if s.drained {
		return nil, fmt.Errorf("load: Run on a drained server")
	}
	return s.p.Run()
}

// Drain tears down the worker pool — scale-down — and reports the
// resource books: a leak-free strategy returns process, frame, and
// commit counts to the post-warm-up baseline. The server cannot serve
// after Drain; calling it twice is an error.
func (s *Server) Drain() (DrainStats, error) {
	if s.drained {
		return DrainStats{}, fmt.Errorf("load: Drain on a drained server")
	}
	s.teardown()
	k := s.d.k
	stats := DrainStats{
		BaseProcs: s.warm.baseProcs, EndProcs: k.ProcessCount(),
		BasePages: s.warm.basePages, EndPages: k.Phys().AllocatedPages(),
		BaseCommit: s.warm.baseCmt, EndCommit: k.Phys().Committed(),
	}
	// Books are closed; recycle the machine into the template it was
	// stamped from. Nil the loop's handles so nothing late can reach
	// whatever machine is stamped into the recycled shell next.
	s.p.release()
	s.d.sys, s.d.k = nil, nil
	return stats, nil
}

func (s *Server) teardown() {
	for _, p := range s.pool {
		p.Destroy()
	}
	s.pool = nil
	s.drained = true
}
