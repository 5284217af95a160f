package repro

// Substrate micro-benchmarks and three load scenarios, driven through
// the public sim API: the host cost of the simulator's own paths, from
// a demand fault to a prefork server. Nothing here regenerates an
// experiment: cmd/forkbench's experiments golden pins their virtual
// numbers byte for byte, and the benchmark in bench/ times the host
// end to end.
//
//	go test -run '^$' -bench . -benchmem
//
// ns/op is only the simulator's own speed. BenchmarkLoadPrefork and
// BenchmarkLoadSMPServer also report the virtual metric their scenario
// is about.

import (
	"fmt"
	"testing"

	"repro/internal/addrspace"
	"repro/internal/kernel"
	"repro/internal/ulib"
	"repro/sim"
	"repro/sim/load"
)

const mib = uint64(1) << 20

// BenchmarkLoadPrefork is the §5 server claim as a benchmark: a
// prefork server draining synthetic requests, one worker process per
// request, swept over creation strategy × server heap. The virt-req/s
// metric is the reproduction's number: flat for spawn and the builder,
// collapsing with heap size for fork+exec. These six configurations
// are rows 0–5 of BENCH_SIM.json, which CI's bench-drift gate holds
// byte for byte (regenerate with `forkbench load -sweep -json
// BENCH_SIM.json`).
func BenchmarkLoadPrefork(b *testing.B) {
	vias := []struct {
		name string
		via  sim.Strategy
	}{
		{"fork", sim.ForkExec},
		{"spawn", sim.Spawn},
		{"builder", sim.Builder},
	}
	for _, heap := range []uint64{64 * mib, 256 * mib} {
		for _, v := range vias {
			b.Run(fmt.Sprintf("%s/%s", v.name, load.HumanBytes(heap)), func(b *testing.B) {
				var reqPerVSec float64
				for i := 0; i < b.N; i++ {
					m, err := load.Run(load.Config{
						Scenario:  load.Prefork,
						Via:       v.via,
						Requests:  64,
						HeapBytes: heap,
					})
					if err != nil {
						b.Fatal(err)
					}
					reqPerVSec = m.RequestsPerVSec
				}
				b.ReportMetric(reqPerVSec, "virt-req/s")
			})
		}
	}
}

// BenchmarkLoadForkStorm measures burst creation: 256 simultaneously
// live children per wave — the scenario that hammers the scheduler's
// run queue and the frame allocator.
func BenchmarkLoadForkStorm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := load.Run(load.Config{
			Scenario: load.ForkStorm, Via: sim.Spawn,
			Requests: 1, Workers: 256, HeapBytes: 16 * mib,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate microbenchmarks -----------------------------------

// BenchmarkDemandFault measures the simulator's page-fault path: Fault
// handles one absent page per iteration, and Touch, the fault path
// workloads take, one 2 MiB leaf's 512 absent pages, reported per page
// as well. The faulted region is bounded and recycled (off the timer)
// so b.N can grow past physical memory.
func BenchmarkDemandFault(b *testing.B) {
	const region = 1 << 30
	run := func(b *testing.B, step uint64, fault func(space *addrspace.Space, va uint64) error) {
		sys, err := sim.NewSystem(sim.WithRAM(8<<30), sim.WithUserland("true"))
		if err != nil {
			b.Fatal(err)
		}
		space := sys.Host().Space()
		remap := func() uint64 {
			vma, err := space.Map(0x10000000, region, addrspace.Read|addrspace.Write, addrspace.MapOpts{})
			if err != nil {
				b.Fatal(err)
			}
			return vma.Start
		}
		start, steps := remap(), int(region/step)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i > 0 && i%steps == 0 {
				b.StopTimer()
				if err := space.Unmap(start, region); err != nil {
					b.Fatal(err)
				}
				start = remap()
				b.StartTimer()
			}
			if err := fault(space, start+uint64(i%steps)*step); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("Fault", func(b *testing.B) {
		run(b, 4096, func(space *addrspace.Space, va uint64) error {
			return space.Fault(va, addrspace.AccessWrite)
		})
	})
	b.Run("Touch", func(b *testing.B) {
		const leaf = 2 << 20
		run(b, leaf, func(space *addrspace.Space, va uint64) error {
			return space.Touch(va, leaf, addrspace.AccessWrite)
		})
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*leaf/4096), "ns/page")
	})
}

// BenchmarkCloneCOW measures the raw page-table COW clone (the fork
// inner loop) for a 64 MiB parent.
func BenchmarkCloneCOW(b *testing.B) {
	sys, err := sim.NewSystem(sim.WithRAM(4<<30), sim.WithUserland("true"))
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.DirtyHost(64*mib, false); err != nil {
		b.Fatal(err)
	}
	space := sys.Host().Space()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := space.CloneCOW()
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		c.Destroy()
		b.StartTimer()
	}
}

// BenchmarkDestroy measures a worker's page-table teardown in its two
// shapes. Exit is a spawned worker's exit: one leaf of 256 faulted
// pages, each frame freed on its last reference. ForkedLink is exec's
// teardown of the image fork gave it: a 64 MiB parent's CloneCOW child,
// every leaf fork-shared, so each is dropped by its link alone. The
// refault and the clone that build each space are off the timer.
func BenchmarkDestroy(b *testing.B) {
	b.Run("Exit", func(b *testing.B) {
		sys, err := sim.NewSystem(sim.WithRAM(1<<30), sim.WithUserland("true"))
		if err != nil {
			b.Fatal(err)
		}
		k := sys.Kernel()
		const length = 256 << 12
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			space := addrspace.New(k.Phys(), k.Meter())
			vma, err := space.Map(0, length, addrspace.Read|addrspace.Write, addrspace.MapOpts{})
			if err != nil {
				b.Fatal(err)
			}
			if err := space.Touch(vma.Start, length, addrspace.AccessWrite); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			space.Destroy()
		}
	})
	b.Run("ForkedLink", func(b *testing.B) {
		sys, err := sim.NewSystem(sim.WithRAM(4<<30), sim.WithUserland("true"))
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.DirtyHost(64*mib, false); err != nil {
			b.Fatal(err)
		}
		space := sys.Host().Space()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c, err := space.CloneCOW()
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			c.Destroy()
		}
	})
}

// BenchmarkVMExecution measures host-side interpreter speed
// (instructions per host second) on a tight arithmetic loop.
func BenchmarkVMExecution(b *testing.B) {
	const spin = `
_start:
    li r1, 1000000000
loop:
    addi r0, r0, 1
    bne r0, r1, loop
    sys SYS_EXIT
`
	sys, err := sim.NewSystem(sim.WithUserland("true"), sim.WithProgram("/bin/spin", spin))
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Command("/bin/spin").Start(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if err := sys.Kernel().Run(kernel.RunLimits{MaxInstructions: uint64(b.N)}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPipeTransfer measures the syscall+pipe path end to end: a
// VM pingpong round trip per iteration (amortised).
func BenchmarkPipeTransfer(b *testing.B) {
	sys, err := sim.NewSystem()
	if err != nil {
		b.Fatal(err)
	}
	rounds := b.N
	if rounds > 100000 {
		rounds = 100000
	}
	b.ResetTimer()
	if err := sys.Command("pingpong", itoa(rounds)).Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
}

// BenchmarkAssemble measures the toolchain: assembling the whole ulib
// runtime plus a representative program via System.InstallProgram.
func BenchmarkAssemble(b *testing.B) {
	sys, err := sim.NewSystem(sim.WithUserland("true"))
	if err != nil {
		b.Fatal(err)
	}
	src := ulib.Sources["pingpong"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.InstallProgram("/bin/pingpong", src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpawnVM measures end-to-end VM spawn throughput: one
// spawn+wait of /bin/true per iteration, driven by the spawnloop
// program.
func BenchmarkSpawnVM(b *testing.B) {
	sys, err := sim.NewSystem(sim.WithRAM(1 << 30))
	if err != nil {
		b.Fatal(err)
	}
	n := b.N
	if n > 20000 {
		n = 20000
	}
	b.ResetTimer()
	if err := sys.Command("spawnloop", itoa(n), "/bin/true").Run(); err != nil {
		b.Fatal(err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkPipeVFS measures a pipe write/read through the sim File
// layer alone (no VM): the substrate cost under the pipeline scenarios.
func BenchmarkPipeVFS(b *testing.B) {
	sys, err := sim.NewSystem(sim.WithUserland("true"))
	if err != nil {
		b.Fatal(err)
	}
	r, w := sys.Pipe()
	buf := make([]byte, 512)
	b.SetBytes(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Write(buf); err != nil {
			b.Fatal(err)
		}
		if _, err := r.Read(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadSMPServer measures the SMP worst case end to end: a
// multithreaded server snapshotted mid-traffic on 4 CPUs, fork (with
// its per-remote-core shootdown tax) vs the fork-less snapshot.
func BenchmarkLoadSMPServer(b *testing.B) {
	for _, v := range []struct {
		name string
		via  sim.Strategy
	}{{"fork", sim.ForkExec}, {"forkless", sim.Spawn}} {
		b.Run(v.name, func(b *testing.B) {
			var ipis uint64
			for i := 0; i < b.N; i++ {
				m, err := load.Run(load.Config{
					Scenario: load.SMPServer, Via: v.via,
					CPUs: 4, Requests: 4, HeapBytes: 16 * mib,
				})
				if err != nil {
					b.Fatal(err)
				}
				ipis = m.TLBShootdowns
			}
			b.ReportMetric(float64(ipis), "shootdown-IPIs")
		})
	}
}
