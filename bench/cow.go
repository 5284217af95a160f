package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/addrspace"
	"repro/internal/mem"
	"repro/sim"
)

// cow-snapshot is the Redis-style snapshot: one 1-CPU machine whose
// host holds a dirty 64 MiB heap forks a snapshot child, rewrites 8 MiB
// of its heap at a seeded page-aligned offset while the snapshot holds
// the old view (2,048 copy-on-write breaks), then drops the snapshot.
// It runs the pagetable, addrspace and mem layers through COW write
// faults instead of exec, so a change that makes fork cheaper by moving
// work to the first write shows its cost here.
var cowSnapshot = workload{
	name: "cow-snapshot",
	// 5% of 25,000 cycles.
	warmup:   1250,
	hostCPUs: 1,
	build:    newCOW,
}

const (
	cowHeap    = 64 << 20
	cowWrite   = 8 << 20
	cowRound   = 8 // cycles per round
	cowOffsets = (cowHeap-cowWrite)/mem.PageSize + 1
)

type cow struct {
	sys       *sim.System
	heapStart uint64
	rng       *rand.Rand
}

func newCOW(seed uint64) (instance, error) {
	sys, err := sim.NewSystem(sim.WithUserland("true"))
	if err != nil {
		return nil, err
	}
	if err := sys.DirtyHost(cowHeap, false); err != nil {
		return nil, err
	}
	heap := heapVMA(sys.Host().Space())
	if heap == nil {
		return nil, fmt.Errorf("host has no heap")
	}
	return &cow{sys: sys, heapStart: heap.Start, rng: newRNG(seed)}, nil
}

// heapVMA returns the largest mapping of a space: the dirty heap of
// every machine the benchmark builds.
func heapVMA(s *addrspace.Space) *addrspace.VMA {
	var best *addrspace.VMA
	for _, v := range s.VMAs() {
		if best == nil || v.Len() > best.Len() {
			best = v
		}
	}
	return best
}

func (w *cow) round(rec *recorder, tr *tracer) error {
	for i := 0; i < cowRound; i++ {
		rec.op(w.cycle(w.nextOffset(), tr.beginOp()))
	}
	return nil
}

// nextOffset draws the next rewrite's page-aligned heap offset.
func (w *cow) nextOffset() uint64 { return uint64(w.rng.IntN(cowOffsets)) * mem.PageSize }

// cycle is one snapshot: fork, rewrite, destroy. The machine must end
// where it started.
func (w *cow) cycle(off uint64, ot *opTrace) opResult {
	defer ot.end()
	k := w.sys.Kernel()
	host := w.sys.Host()
	procs, frames, commit := k.ProcessCount(), k.Phys().AllocatedPages(), k.Phys().Committed()
	res := opResult{requests: 1, attempted: 1}

	t0 := time.Now()
	v0 := w.sys.VirtualTime()
	ot.start("kernel.fork")
	snap, err := k.Fork(host)
	v1 := w.sys.VirtualTime()
	ot.stop(v1 - v0)
	if err == nil {
		ot.start("addrspace.touch")
		err = host.Space().Touch(w.heapStart+off, cowWrite, addrspace.AccessWrite)
		v2 := w.sys.VirtualTime()
		ot.stop(v2 - v1)
		// Sample point: both views of the rewritten 8 MiB are live.
		res.peakPages = k.Phys().AllocatedPages()
		ot.start("kernel.destroy")
		k.DestroyProcess(snap)
		ot.stop(w.sys.VirtualTime() - v2)
	}
	res.host = time.Since(t0)
	res.virt = w.sys.VirtualTime() - v0

	switch {
	case err != nil:
		res.err = fmt.Errorf("snapshot at offset %#x: %w", off, err)
	case k.ProcessCount() != procs || k.Phys().AllocatedPages() != frames || k.Phys().Committed() != commit:
		res.err = fmt.Errorf("snapshot at offset %#x leaked: processes %d->%d, frames %d->%d, commit %d->%d",
			off, procs, k.ProcessCount(), frames, k.Phys().AllocatedPages(), commit, k.Phys().Committed())
	}
	return res
}

func (w *cow) counters() counts {
	var c counts
	c.addMeter(w.sys.Kernel().Meter(), w.sys.Kernel().ContextSwitches())
	return c
}

func (w *cow) checkEnd(*recorder) []string { return nil }

func (w *cow) probeSystem() (*sim.System, error) { return w.sys, nil }
