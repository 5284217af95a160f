package main

import (
	"fmt"
	"slices"
	"time"

	"repro/sim"
)

// The two server workloads are §5's prefork server and Figure 1 in one
// run: four 1-CPU machines whose host process holds a dirty heap of 4,
// 16, 64 or 256 MiB, serving one request at a time. Requests go to the
// classes in fixed shares of 2/5/2/1 per round of ten, which keeps the
// median inside the 16 MiB class and the p99 inside the 256 MiB class,
// never on a class boundary.
var heapClasses = []struct {
	mib   uint64
	share int
}{{4, 2}, {16, 5}, {64, 2}, {256, 1}}

// probeClass is the class whose machine the ladder probes run on.
const probeClass = 1 // 16 MiB

var forkServer = workload{
	name: "fork-server",
	// 5% of the 50,000 requests the timed phase serves in about ten
	// seconds on a 2-CPU host.
	warmup:   2500,
	hostCPUs: 1,
	build:    func(seed uint64) (instance, error) { return newServers(sim.ForkExec, seed) },
}

var spawnServer = workload{
	name:     "spawn-server",
	warmup:   10000,
	hostCPUs: 1,
	build:    func(seed uint64) (instance, error) { return newServers(sim.Spawn, seed) },
}

type servers struct {
	via    sim.Strategy
	sys    []*sim.System // one per heap class
	rounds *shuffler     // of heap classes
}

func newServers(via sim.Strategy, seed uint64) (*servers, error) {
	s := &servers{via: via}
	var classes []int
	for c, hc := range heapClasses {
		sys, err := sim.NewSystem(sim.WithUserland("hog"))
		if err != nil {
			return nil, err
		}
		if err := sys.DirtyHost(hc.mib<<20, false); err != nil {
			return nil, err
		}
		s.sys = append(s.sys, sys)
		for i := 0; i < hc.share; i++ {
			classes = append(classes, c)
		}
	}
	s.rounds = newShuffler(seed, classes)
	return s, nil
}

func (s *servers) round(rec *recorder, tr *tracer) error {
	for _, c := range s.rounds.next() {
		rec.op(s.request(c, tr.beginOp()))
	}
	return nil
}

// request serves one request on class c's machine: create a worker
// running `hog 1` (map and dirty 1 MiB, exit 0), start it, and wait
// for it to be reaped. The machine must end where it started: same
// process count, allocated frames and commit charge.
func (s *servers) request(c int, ot *opTrace) opResult {
	defer ot.end()
	sys := s.sys[c]
	k := sys.Kernel()
	procs, frames, commit := k.ProcessCount(), k.Phys().AllocatedPages(), k.Phys().Committed()
	res := opResult{class: c, requests: 1, attempted: 1}

	t0 := time.Now()
	v0 := sys.VirtualTime()
	cmd := sys.Command("hog", "1").Via(s.via)
	ot.start("core.create")
	p, err := cmd.Create()
	v1 := sys.VirtualTime()
	ot.stop(v1 - v0)
	if err == nil {
		ot.start("kernel.start")
		if err = p.Start(); err != nil {
			p.Destroy()
		}
		ot.stop(sys.VirtualTime() - v1)
	}
	// Sample point: the worker exists with its image and page table.
	res.peakPages = k.Phys().AllocatedPages()
	if err == nil {
		v2 := sys.VirtualTime()
		ot.start("kernel.wait")
		err = cmd.Wait()
		ot.stop(sys.VirtualTime() - v2)
	}
	res.host = time.Since(t0)
	res.virt = sys.VirtualTime() - v0

	switch {
	case err != nil:
		res.err = fmt.Errorf("%s request on the %d MiB server: %w", s.via, heapClasses[c].mib, err)
	case k.ProcessCount() != procs || k.Phys().AllocatedPages() != frames || k.Phys().Committed() != commit:
		res.err = fmt.Errorf("%s request on the %d MiB server leaked: processes %d->%d, frames %d->%d, commit %d->%d",
			s.via, heapClasses[c].mib, procs, k.ProcessCount(), frames, k.Phys().AllocatedPages(),
			commit, k.Phys().Committed())
	}
	return res
}

func (s *servers) counters() counts {
	var c counts
	for _, sys := range s.sys {
		c.addMeter(sys.Kernel().Meter(), sys.Kernel().ContextSwitches())
	}
	return c
}

// checkEnd checks the paper's shape per heap class: under fork every
// request of a bigger heap is slower than every request of a smaller
// one; under spawn every request costs the same whatever the heap.
func (s *servers) checkEnd(rec *recorder) []string {
	var lo, hi []int64 // per class
	for c := range heapClasses {
		v := rec.virtByClass[c]
		if len(v) == 0 {
			return []string{fmt.Sprintf("no successful request on the %d MiB server", heapClasses[c].mib)}
		}
		lo, hi = append(lo, slices.Min(v)), append(hi, slices.Max(v))
	}
	var bad []string
	for c := 1; c < len(heapClasses); c++ {
		a, b := heapClasses[c-1].mib, heapClasses[c].mib
		switch {
		case s.via == sim.ForkExec && hi[c-1] >= lo[c]:
			bad = append(bad, fmt.Sprintf("fork: a %d MiB request (%dns) is not faster than a %d MiB one (%dns)", a, hi[c-1], b, lo[c]))
		case s.via == sim.Spawn && (lo[c] != lo[0] || hi[c] != hi[0] || lo[0] != hi[0]):
			bad = append(bad, fmt.Sprintf("spawn: %d MiB requests took %d..%dns, %d MiB ones %d..%dns", heapClasses[0].mib, lo[0], hi[0], b, lo[c], hi[c]))
		}
	}
	return bad
}

func (s *servers) probeSystem() (*sim.System, error) { return s.sys[probeClass], nil }
