package load

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/addrspace"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/sim"
	simnet "repro/sim/net"
)

// The Migrate scenario: live migration of one resident process between
// two machines over the sim/net fabric, by iterative pre-copy on top of
// the COW dirty tracking (internal/addrspace/pages.go) and the
// checkpoint/restore substrate (internal/kernel/checkpoint.go).
//
// One migration is the textbook loop:
//
//	round 0   checkpoint the migrant in full (rearming the dirty
//	          tracking), ship every page over the wire, and restore
//	          the process shell on the destination — the source keeps
//	          running throughout;
//	round r   the migrant keeps dirtying its heap; capture exactly the
//	          pages written since round r-1 (dirty-only, rearmed),
//	          ship them, and overwrite the destination's stale copies;
//	stop      freeze the source, capture the final residue plus the
//	          runtime state (threads, fds, signals), ship it, finish
//	          the restore, and resume on the destination. Only this
//	          phase is downtime.
//
// What the migrant is depends on Config.Via, which is the paper's
// point: a fork-family process (ForkExec, EmulatedFork, EagerForkExec)
// carries the parent's dirtied heap, so every pre-copy round re-ships
// Θ(MutateBytes) and the stop-and-copy residue is Θ(dirty heap) — the
// entangled address space follows the process around the cluster. A
// spawned or Builder-constructed process owns only its own image:
// round 0 is small, later rounds converge to nothing, and downtime is
// flat in the parent's heap size (E16). A vfork child cannot be
// migrated at all — it borrows the parent's address space — and the
// checkpoint refuses cleanly; the run counts the refusal and moves on.
//
// The page stream is chunked onto the fabric, so wire latency, per-byte
// cost, and fault schedules (drops, partitions) apply: lost chunks are
// re-sent in deterministic waves, and a link that stays dead fails the
// run rather than hanging it. Everything is single-threaded discrete
// event simulation like the other network cells — bit-identical at any
// GOMAXPROCS.

// Cell wiring: source and destination addresses, the page-stream chunk
// size, the metadata frame that rides with the final residue, and the
// retransmission budget per chunk.
const (
	migSrcAddr = 0
	migDstAddr = 1

	migChunkBytes  = 256 << 10
	migHdrBytes    = 4096
	migMaxAttempts = 16
)

// migrateCell is one Migrate run: two machines, the fabric between
// them, and the counters the loop accumulates.
type migrateCell struct {
	cfg   Config
	model cost.Model
	fab   *simnet.Fabric
	src   *sim.System
	dst   *sim.System

	heapStart uint64 // source host's server-heap base VA
	rounds    int    // pre-copy rounds per migration (round 0 included)

	// recs is the one record buffer every capture of every migration
	// fills: each round's records are installed before the next round
	// captures. The cell takes it from recPool and puts it back when it
	// ends, so once one full capture has grown a buffer, neither a
	// later round nor a later cell allocates a record slice.
	recs []addrspace.PageRecord

	migrations uint64
	refused    uint64
	creations  uint64
	roundsRun  uint64
	pagesSent  uint64     // 4 KiB units shipped, all rounds + residue
	downtime   cost.Ticks // summed stop-and-copy outage
	peakPages  uint64
}

// recPool recycles migrate cells' record buffers across cells: a fleet
// runs many migrate machines, and each would otherwise grow its own
// full capture's records (about 169 KiB at a 16 MiB heap). A buffer
// goes back with every record zeroed, so it pins no page bytes.
// sync.Pool keeps it safe for cells run concurrently.
var recPool = sync.Pool{New: func() any { return new([]addrspace.PageRecord) }}

// pageRecBytes sums captured records' payload in bytes.
func pageRecBytes(recs []addrspace.PageRecord) uint64 {
	var n uint64
	for i := range recs {
		n += recs[i].Pages() << mem.PageShift
	}
	return n
}

// runMigrateCell executes the Migrate scenario. The source machine is
// stamped from tc (cold-booted when tc is nil) and released back into
// its template after the cell; the destination always boots cold.
func runMigrateCell(cfg Config, tc *Templates) (*Metrics, error) {
	cfg = cfg.withDefaults()
	// The source is a warmed server, stamped like any single-machine
	// run: its dirty heap is what the fork-family migrants drag along.
	prep, err := tc.stamp(cfg)
	if err != nil {
		return nil, err
	}
	src := prep.sys
	// The destination boots identically but stays cold: the migrant's
	// state arrives over the wire, not from a local warm-up.
	dst, err := boot(cfg)
	if err != nil {
		return nil, err
	}

	var opts []simnet.Option
	if cfg.Faults != nil {
		opts = append(opts, simnet.WithFaults(cfg.Faults))
	}
	fab, err := simnet.New(2, cost.DefaultModel(), opts...)
	if err != nil {
		return nil, err
	}

	buf := recPool.Get().(*[]addrspace.PageRecord)
	c := &migrateCell{
		cfg:       cfg,
		model:     cost.DefaultModel(),
		fab:       fab,
		src:       src,
		dst:       dst,
		heapStart: prep.heapStart,
		rounds:    cfg.Workers,
		recs:      (*buf)[:0],
	}
	defer func() {
		*buf = c.recs[:0]
		clear((*buf)[:cap(*buf)])
		recPool.Put(buf)
	}()
	if c.rounds < 1 {
		c.rounds = 1
	}

	// Measure from here, warm-up excluded like every scenario.
	srcK := src.Kernel()
	w := openWindow(srcK, dst.Kernel())
	t0 := srcK.Elapsed()

	for i := 0; i < cfg.Requests; i++ {
		if err := c.migrateOnce(); err != nil {
			return nil, fmt.Errorf("load: migrate via %v: %w", cfg.Via, err)
		}
	}

	m := &Metrics{
		Scenario:  string(cfg.Scenario),
		Strategy:  cfg.Via.String(),
		HeapBytes: prep.heapBytes,
		RAMBytes:  cfg.RAMBytes,
		NumCPUs:   cfg.CPUs,

		Requests:  c.migrations,
		Creations: c.creations,

		VirtualNanos: uint64(srcK.Elapsed() - t0),
		PeakRSSBytes: c.peakPages * uint64(mem.PageSize),

		MigrateRounds:        c.roundsRun,
		MigratePagesSent:     c.pagesSent,
		MigrateDowntimeNanos: uint64(c.downtime),
		MigrateRefused:       c.refused,
	}
	w.close(m, fab)
	prep.release()
	return m, nil
}

// createMigrant builds one migrant on the source per the strategy.
// Fork-family strategies fork the warmed server itself — the child
// carries the dirty heap, which is exactly the paper's entanglement;
// emufork copies it through cross-process reads and writes, as the
// driver's snapshots do. Spawn and Builder create a self-contained
// process from an image.
func (c *migrateCell) createMigrant() (*kernel.Process, error) {
	k := c.src.Kernel()
	host := c.src.Host()
	switch c.cfg.Via {
	case sim.ForkExec:
		return k.Fork(host)
	case sim.EmulatedFork:
		return core.EmulateFork(k, host)
	case sim.EagerForkExec:
		return k.ForkWithMode(host, kernel.ForkEager)
	case sim.VforkExec:
		return k.ForkWithMode(host, kernel.ForkVfork)
	default: // sim.Spawn, sim.Builder
		p, err := c.src.Command("true").Via(c.cfg.Via).Create()
		if err != nil {
			return nil, err
		}
		return p.Raw(), nil
	}
}

// mutate re-dirties the migrant's share of the server heap — the work
// the process "does" while a pre-copy round is in flight. Migrants
// without the inherited heap (spawned, Builder-built) have nothing at
// that address and skip it: their rounds converge immediately.
func (c *migrateCell) mutate(p *kernel.Process) error {
	if c.cfg.MutateBytes == 0 || p.Space().FindVMA(c.heapStart) == nil {
		return nil
	}
	n := c.cfg.MutateBytes
	return p.Space().Touch(c.heapStart, n, addrspace.AccessWrite)
}

// sampleRSS tracks the two machines' allocation high-water mark.
func (c *migrateCell) sampleRSS() {
	for _, k := range []*kernel.Kernel{c.src.Kernel(), c.dst.Kernel()} {
		if a := k.Phys().AllocatedPages(); a > c.peakPages {
			c.peakPages = a
		}
	}
}

// migrateOnce moves one migrant from src to dst.
func (c *migrateCell) migrateOnce() error {
	srcK, dstK := c.src.Kernel(), c.dst.Kernel()
	p, err := c.createMigrant()
	if err != nil {
		return err
	}
	c.creations++
	defer srcK.DestroyProcess(p)

	// Round 0: full checkpoint, rearming the dirty tracking.
	img, err := srcK.CheckpointProcess(p, kernel.CheckpointOpts{Rearm: true, PageBuf: c.recs})
	if err != nil {
		var ce *kernel.CheckpointError
		if errors.As(err, &ce) {
			// Not migratable (a vfork borrower, typically): a clean
			// refusal, counted, not a failure.
			c.refused++
			return nil
		}
		return err
	}
	arrival, err := c.ship("precopy", img.PageBytes()+migHdrBytes)
	if err != nil {
		return err
	}
	dstK.AdvanceTo(arrival)
	c.recs = img.Pages
	rp, err := dstK.RestoreProcess(img)
	if err != nil {
		return fmt.Errorf("restore round 0: %w", err)
	}
	defer dstK.DestroyProcess(rp)
	c.pagesSent += img.PageBytes() >> mem.PageShift
	c.roundsRun++
	c.syncRound()

	// Pre-copy rounds 1..n-1: the migrant keeps running (and
	// dirtying); each round harvests and re-ships exactly the pages
	// written since the last.
	for r := 1; r < c.rounds; r++ {
		if err := c.mutate(p); err != nil {
			return err
		}
		recs := p.Space().CapturePages(c.recs[:0], true, true)
		c.recs = recs
		if len(recs) == 0 {
			break // converged: nothing dirtied since the last round
		}
		arrival, err := c.ship("precopy", pageRecBytes(recs))
		if err != nil {
			return err
		}
		dstK.AdvanceTo(arrival)
		for _, rec := range recs {
			if err := rp.Space().InstallPage(rec); err != nil {
				return fmt.Errorf("install round %d page %#x: %v", r, rec.VA, err)
			}
		}
		c.pagesSent += pageRecBytes(recs) >> mem.PageShift
		c.roundsRun++
		c.syncRound()
	}

	// Stop-and-copy: one last burst of dirtying (the work done while
	// the final round was on the wire), then freeze the source and
	// ship the residue plus the runtime state. This is the outage.
	if err := c.mutate(p); err != nil {
		return err
	}
	tStop := srcK.Elapsed()
	final, err := srcK.CheckpointProcess(p, kernel.CheckpointOpts{DirtyOnly: true, PageBuf: c.recs})
	if err != nil {
		return fmt.Errorf("stop-and-copy checkpoint: %w", err)
	}
	c.recs = final.Pages
	arrival, err = c.ship("final", final.PageBytes()+migHdrBytes)
	if err != nil {
		return err
	}
	dstK.AdvanceTo(arrival)
	for _, rec := range final.Pages {
		if err := rp.Space().InstallPage(rec); err != nil {
			return fmt.Errorf("install residue page %#x: %v", rec.VA, err)
		}
	}
	c.pagesSent += final.PageBytes() >> mem.PageShift
	c.sampleRSS()
	resume := dstK.Elapsed()
	if resume < arrival {
		resume = arrival
	}
	c.downtime += resume - tStop
	// The source observes the handoff ack before tearing down its
	// copy; the next migration starts after that.
	srcK.AdvanceTo(resume)
	c.migrations++
	return nil
}

// syncRound closes one pre-copy round: the destination has installed
// the round's pages, and the source waits for the ack before starting
// the next — synchronous rounds keep the cell single-threaded and
// deterministic.
func (c *migrateCell) syncRound() {
	c.sampleRSS()
	srcK, dstK := c.src.Kernel(), c.dst.Kernel()
	if e := dstK.Elapsed(); e > srcK.Elapsed() {
		srcK.AdvanceTo(e)
	}
}

// ship streams bytes from src to dst as chunked packets on the flow,
// returning the arrival time of the last chunk. Chunks lost to the
// fault schedule — on send or at delivery — are re-sent in waves: send
// every unacknowledged chunk, drain the wire, repeat, each wave a link
// latency later. A chunk that exceeds its attempt budget fails the
// migration (the link is effectively dead).
func (c *migrateCell) ship(flow string, bytes uint64) (cost.Ticks, error) {
	now := c.src.Kernel().Elapsed()
	nchunks := int((bytes + migChunkBytes - 1) / migChunkBytes)
	if nchunks < 1 {
		nchunks = 1
	}
	size := func(i int) uint64 {
		if i == nchunks-1 {
			if rem := bytes - uint64(i)*migChunkBytes; rem > 0 {
				return rem
			}
		}
		return migChunkBytes
	}
	acked := make([]bool, nchunks)
	attempts := make([]int, nchunks)
	var last cost.Ticks
	for remaining := nchunks; remaining > 0; {
		waveEnd := now
		for i := 0; i < nchunks; i++ {
			if acked[i] {
				continue
			}
			if attempts[i] >= migMaxAttempts {
				return 0, fmt.Errorf("ship %s chunk %d/%d: dropped %d times, link dead",
					flow, i, nchunks, attempts[i])
			}
			attempts[i]++
			if p, ok := c.fab.Send(migSrcAddr, migDstAddr, flow, uint64(i), size(i), now); ok {
				if p.Arrival > waveEnd {
					waveEnd = p.Arrival
				}
			}
		}
		// Drain the wave: every queued chunk either arrives (acked by
		// its tag) or is eaten at delivery and stays unacknowledged.
		for {
			if _, ok := c.fab.NextArrival(); !ok {
				break
			}
			p, ok := c.fab.DeliverNext()
			if !ok {
				continue
			}
			if !acked[p.Tag] {
				acked[p.Tag] = true
				remaining--
			}
			if p.Arrival > last {
				last = p.Arrival
			}
		}
		// Next wave starts a link latency after this one finished.
		next := waveEnd + c.model.NetLinkLatency
		if next <= now {
			next = now + c.model.NetLinkLatency
		}
		now = next
	}
	return last, nil
}
