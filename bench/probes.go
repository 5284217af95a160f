package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/addrspace"
	"repro/internal/cost"
	"repro/internal/mem"
	"repro/internal/pagetable"
	"repro/sim"
	simnet "repro/sim/net"
)

// The ladder probes time one primitive of one layer in isolation, on a
// warmed machine of the workload after its traced phase. Each reports
// host ns and Go heap bytes allocated per call; fixtures a probe needs
// (a clone to break, a process to restore into) stay outside the
// measured calls.
type probe struct {
	name string
	run  func(sys *sim.System) (calls int, ns int64, bytes uint64, err error)
}

var probes = []probe{
	{"pagetable.clone_destroy", probeCloneDestroy},
	{"addrspace.cow_break", probeCOWBreak},
	{"mem.alloc_free", probeAllocFree},
	{"kernel.checkpoint", probeCheckpoint},
	{"kernel.restore", probeRestore},
	{"sim.template_clone", func(sys *sim.System) (int, int64, uint64, error) { return probeTemplate(sys, true) }},
	{"sim.template_release", func(sys *sim.System) (int, int64, uint64, error) { return probeTemplate(sys, false) }},
	{"net.send_deliver", probeSendDeliver},
}

func runProbes(sys *sim.System, m map[string]float64) error {
	for _, p := range probes {
		calls, ns, bytes, err := p.run(sys)
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.name, err)
		}
		m[p.name+".host_ns_per_call"] = float64(ns) / float64(calls)
		m[p.name+".alloc_b_per_call"] = float64(bytes) / float64(calls)
	}
	return nil
}

// measure times f and counts the Go heap bytes it allocates. The
// allocation count is exact: ReadMemStats flushes every per-P cache.
func measure(f func() error) (ns int64, bytes uint64, err error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	a0 := ms.TotalAlloc
	t0 := time.Now()
	err = f()
	ns = int64(time.Since(t0))
	runtime.ReadMemStats(&ms)
	return ns, ms.TotalAlloc - a0, err
}

// probeCloneDestroy: pagetable.Table.CloneCOW of the host's table, then
// Destroy dropping the frame references the clone took.
func probeCloneDestroy(sys *sim.System) (int, int64, uint64, error) {
	const calls = 64
	space := sys.Host().Space()
	pt, phys := space.PageTable(), space.Phys()
	release := func(_ uint64, e pagetable.PTE) { phys.DecRef(e.Frame()) }
	ns, bytes, err := measure(func() error {
		for i := 0; i < calls; i++ {
			pt.CloneCOW().Destroy(release)
		}
		return nil
	})
	return calls, ns, bytes, err
}

// probeCOWBreak: one addrspace.Space.Fault write on a page the space
// shares copy-on-write with a fresh fork of the host heap.
func probeCOWBreak(sys *sim.System) (int, int64, uint64, error) {
	const batches, perBatch = 4, 4096 // 16 MiB of breaks per batch
	space := sys.Host().Space()
	heap := heapVMA(space)
	pages := min(int(heap.Pages()), perBatch)
	var ns int64
	var bytes uint64
	for b := 0; b < batches; b++ {
		child, err := space.CloneCOW()
		if err != nil {
			return 0, 0, 0, err
		}
		n, a, err := measure(func() error {
			for i := 0; i < pages; i++ {
				if err := child.Fault(heap.Start+uint64(i)*mem.PageSize, addrspace.AccessWrite); err != nil {
					return err
				}
			}
			return nil
		})
		child.Destroy()
		if err != nil {
			return 0, 0, 0, err
		}
		ns, bytes = ns+n, bytes+a
	}
	return batches * pages, ns, bytes, nil
}

// probeAllocFree: mem.Physical.Alloc of one frame and the DecRef that
// frees it.
func probeAllocFree(sys *sim.System) (int, int64, uint64, error) {
	const calls = 200000
	phys := sys.Kernel().Phys()
	ns, bytes, err := measure(func() error {
		for i := 0; i < calls; i++ {
			f, err := phys.Alloc()
			if err != nil {
				return err
			}
			phys.DecRef(f)
		}
		return nil
	})
	return calls, ns, bytes, err
}

const checkpointCalls = 16

// probeCheckpoint: sim.Process.Checkpoint of the host process and its
// whole heap.
func probeCheckpoint(sys *sim.System) (int, int64, uint64, error) {
	host := sys.ProcessOf(sys.Host())
	ns, bytes, err := measure(func() error {
		for i := 0; i < checkpointCalls; i++ {
			if _, err := host.Checkpoint(); err != nil {
				return err
			}
		}
		return nil
	})
	return checkpointCalls, ns, bytes, err
}

// probeRestore: sim.System.Restore of the host's checkpoint onto its own
// machine; the restored copy is destroyed off the clock.
func probeRestore(sys *sim.System) (int, int64, uint64, error) {
	img, err := sys.ProcessOf(sys.Host()).Checkpoint()
	if err != nil {
		return 0, 0, 0, err
	}
	var ns int64
	var bytes uint64
	for i := 0; i < checkpointCalls; i++ {
		var p *sim.Process
		n, a, err := measure(func() (err error) {
			p, err = sys.Restore(img)
			return err
		})
		if err != nil {
			return 0, 0, 0, err
		}
		sys.Kernel().DestroyProcess(p.Raw())
		ns, bytes = ns+n, bytes+a
	}
	return checkpointCalls, ns, bytes, nil
}

const templateCalls = 256

// probeTemplate: sim.Template.Clone of a snapshot of the machine into a
// recycled shell, the fleet loop's steady state, or (timeClone false)
// the sim.Template.Release of such a clone.
func probeTemplate(sys *sim.System, timeClone bool) (int, int64, uint64, error) {
	tpl, err := sys.Snapshot()
	if err != nil {
		return 0, 0, 0, err
	}
	// Fill the recycle pool first, so every measured clone reuses a shell.
	warm, err := tpl.Clone()
	if err != nil {
		return 0, 0, 0, err
	}
	tpl.Release(warm)
	var ns int64
	var bytes uint64
	for i := 0; i < templateCalls; i++ {
		var c *sim.System
		cn, ca, err := measure(func() (err error) {
			c, err = tpl.Clone()
			return err
		})
		if err != nil {
			return 0, 0, 0, err
		}
		rn, ra, _ := measure(func() error {
			tpl.Release(c)
			return nil
		})
		if timeClone {
			ns, bytes = ns+cn, bytes+ca
		} else {
			ns, bytes = ns+rn, bytes+ra
		}
	}
	return templateCalls, ns, bytes, nil
}

// probeSendDeliver: sim/net.Fabric.Send of one request frame and the
// DeliverNext that pops it, on a clean two-node fabric.
func probeSendDeliver(*sim.System) (int, int64, uint64, error) {
	const calls = 200000
	fab, err := simnet.New(2, cost.DefaultModel())
	if err != nil {
		return 0, 0, 0, err
	}
	ns, bytes, err := measure(func() error {
		for i := 0; i < calls; i++ {
			p, _ := fab.Send(0, 1, "req", uint64(i), 512, cost.Ticks(i))
			if q, ok := fab.DeliverNext(); !ok || q.Tag != p.Tag {
				return fmt.Errorf("frame %d not delivered", i)
			}
		}
		return nil
	})
	return calls, ns, bytes, err
}
