package load

import (
	"strconv"

	"repro/internal/addrspace"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/sim"
	"repro/sim/fault"
)

// serve is the package's one closed request loop, and §5's server
// claim as a workload: every request is handled by a freshly created
// worker process (see request). It keeps a window of requests in
// flight — Config.Window, else the scenario's DefaultWindow — so on a
// multicore machine the workers genuinely overlap in virtual time.
// Under fork the per-request cost includes duplicating the server's
// page tables — Θ(heap) — so throughput falls as the server grows;
// under spawn or the builder it is flat. A build farm is the same loop
// over compile jobs with a compiler-sized working set: the jobs
// overlap on a multicore machine, and the creation strategy decides
// whether job launch serializes on the parent's page tables (fork) or
// stays flat (spawn/builder).
//
// The scenarios launch n = Requests; a Server's ServeBatch also passes
// a budget, past which (budgetNanos > 0) no new request launches and
// the loop drains what is in flight.
//
// Failures never abort the loop: a refused creation or a worker lost
// mid-request counts in Batch.Failed, and the first one's cause is
// returned once the loop drains. A clean scenario run fails on it; a
// Server and a chaos run keep serving — the survival metric E11
// reports. With Config.Faults armed (chaos mode) the loop also
// consults fault.PointKill once per request, so kill-wave schedules
// can crash in-flight workers.
func (s *Server) serve(n int, budgetNanos uint64) (Batch, error) {
	window := s.cfg.Window
	if window < 1 {
		window = DefaultWindow(s.cfg.Scenario, s.cfg.CPUs)
	}
	chaos := s.cfg.Faults != nil
	t0 := s.k.Elapsed()
	overBudget := func() bool {
		return budgetNanos > 0 && uint64(s.k.Elapsed()-t0) >= budgetNanos
	}
	var b Batch
	var first error
	fail := func(err error) {
		b.Failed++
		if first == nil {
			first = err
		}
	}
	var inflight []*sim.Cmd
	launched := 0
	for launched < n || len(inflight) > 0 {
		for len(inflight) < window && launched < n && !overBudget() {
			cmd := s.request()
			launched++
			if err := cmd.Start(); err != nil {
				fail(err) // creation refused: the request is lost, the server survives
				continue
			}
			b.Creations++
			inflight = append(inflight, cmd)
		}
		if len(inflight) == 0 {
			if overBudget() {
				break
			}
			continue // every launch in this window failed
		}
		// Sample while workers are live, so the peak reflects the
		// per-request footprint (stack, image, mirrored page table),
		// not just the server heap.
		s.sample()
		cmd := inflight[0]
		inflight = inflight[1:]
		if chaos && s.k.Faults().Fail(fault.PointKill, 1) != 0 {
			// Kill wave: the worker crashes mid-request.
			cmd.Process.Kill()
		}
		if err := cmd.Wait(); err != nil {
			fail(err) // worker died (injected ENOMEM, OOM kill, crash)
		} else {
			b.Served++
		}
	}
	b.Nanos = uint64(s.k.Elapsed() - t0)
	return b, first
}

// request builds one request's worker command: a hog that allocates
// and write-touches RequestWorkMiB of its own when that is set,
// otherwise a trivial exit.
func (s *Server) request() *sim.Cmd {
	if mib := s.cfg.RequestWorkMiB; mib > 0 {
		return s.sys.Command("hog", strconv.Itoa(mib)).Via(s.cfg.Via)
	}
	return s.sys.Command("true").Via(s.cfg.Via)
}

// pipeline is the shell farm: each unit of work builds an
// echo|cat|…|cat pipeline of Workers stages wired through kernel
// pipes, starts every stage through the configured strategy, and
// drains it. The final stage writes to the console (discarded).
func (s *Server) pipeline() error {
	depth := s.cfg.Workers
	if depth < 2 {
		depth = 2
	}
	for i := 0; i < s.cfg.Requests; i++ {
		cmds := make([]*sim.Cmd, depth)
		cmds[0] = s.sys.Command("echo", "req", strconv.Itoa(i))
		for j := 1; j < depth; j++ {
			cmds[j] = s.sys.Command("cat")
		}
		files := make([]*sim.File, 0, 2*(depth-1))
		for j := 0; j < depth-1; j++ {
			r, w := s.sys.Pipe()
			cmds[j].Stdout = w
			cmds[j+1].Stdin = r
			files = append(files, r, w)
		}
		closeAll := func() {
			for _, f := range files {
				f.Close()
			}
		}
		for j := range cmds {
			if err := cmds[j].Via(s.cfg.Via).Start(); err != nil {
				// Tear down the stages already launched so the
				// error surfaces instead of a wedged machine.
				for _, started := range cmds[:j] {
					started.Process.Kill()
					started.Wait()
				}
				closeAll()
				return err
			}
			s.creations++
		}
		// Drop the host's pipe ends so EOF propagates stage to stage.
		closeAll()
		s.sample()
		for j := range cmds {
			if err := cmds[j].Wait(); err != nil {
				return err
			}
		}
		s.requests++
	}
	return nil
}

// checkpoint is the Redis-style snapshotter: each cycle takes a
// point-in-time snapshot of the server's heap, then the server keeps
// mutating an eighth of it while the snapshot is held — every
// mutated page pays a COW break (the PageCopies column). The snapshot
// is a core.Fork of the server by the strategy, with two substitutes
// (see snapshot):
//
//   - ForkExec/VforkExec: kernel COW fork — the cheap snapshot the
//     paper concedes fork is still good for (vfork itself cannot
//     snapshot, it shares the address space, so it gets COW fork too);
//   - EagerForkExec: the 1970s ablation, physically copying the heap;
//   - Spawn/Builder/EmulatedFork: the fork-less path — a §5 kernel
//     without fork snapshots through cross-process reads and writes,
//     paying Θ(resident bytes) in user space.
func (s *Server) checkpoint() error {
	host := s.sys.Host()
	heap := s.cfg.HeapBytes
	mutate := s.cfg.mutateBytes()
	if mutate > heap {
		mutate = heap
	}
	off := uint64(0)
	for i := 0; i < s.cfg.Requests; i++ {
		snap, err := s.snapshot(host)
		if err != nil {
			return err
		}
		s.creations++
		if mutate > 0 {
			if off+mutate > heap {
				off = 0
			}
			if err := host.Space().Touch(s.warm.heapStart+off, mutate, addrspace.AccessWrite); err != nil {
				s.k.DestroyProcess(snap)
				return err
			}
			off += mutate
		}
		s.sample()
		// The snapshot has been "persisted"; release the old view.
		s.k.DestroyProcess(snap)
		s.requests++
	}
	return nil
}

// snapshot forks host by the strategy: vfork snapshots by COW fork,
// and spawn and the builder, which cannot duplicate a process, by the
// emulation.
func (s *Server) snapshot(host *kernel.Process) (*kernel.Process, error) {
	via := s.cfg.Via
	switch via {
	case sim.VforkExec:
		via = sim.ForkExec
	case sim.Spawn, sim.Builder:
		via = sim.EmulatedFork
	}
	return core.Fork(s.k, host, via)
}

// smpserver is the Redis/SMP worst case §5 warns about: a real
// multithreaded server (one spinning worker thread per CPU, each
// rewriting its own slice of a dirty heap) takes periodic fork
// snapshots *mid-traffic*. Every snapshot COW-downgrades the server's
// page tables while its threads are live on other cores — an IPI per
// remote core — and every post-snapshot heap write pays a COW break
// plus another IPI round. The fork-less strategies snapshot through
// the cross-process API instead: Θ(heap) copying, but no shootdowns,
// so their IPI count stays at zero as cores grow.
//
// Requests counts snapshot cycles. ServerCPUNanos reports how much
// CPU time the server's threads still got — the service capacity the
// snapshot tax did not consume.
func (s *Server) smpserver() error {
	threads := s.cfg.CPUs
	if threads > 8 {
		threads = 8 // smpspin has 8 worker stacks
	}
	srv := s.sys.Command("smpspin",
		strconv.Itoa(threads), strconv.FormatUint(s.cfg.HeapBytes, 10))
	if err := srv.Via(sim.Spawn).Start(); err != nil {
		return err
	}
	server := srv.Process.Raw()
	cpuBase := uint64(server.TotalCPUTicks())

	// One traffic slice is enough virtual time for every worker to
	// rewrite its slice at least once between snapshots.
	const slice = 5_000_000 // 5ms virtual
	finish := func(err error) error {
		srv.Process.Kill()
		if werr := srv.Wait(); err == nil && werr != nil && sim.AsExitError(werr) == nil {
			return werr
		}
		s.serverCPU = uint64(server.TotalCPUTicks()) - cpuBase
		return err
	}
	for i := 0; i < s.cfg.Requests; i++ {
		// Serve traffic, then snapshot mid-flight.
		if err := s.k.Run(kernel.RunLimits{MaxTicks: slice}); err != nil {
			return finish(err)
		}
		snap, err := s.snapshot(server)
		if err != nil {
			return finish(err)
		}
		s.creations++
		// The snapshot is held while traffic continues: the
		// workers' writes break COW pages one by one, each paying
		// the remote-core invalidations.
		if err := s.k.Run(kernel.RunLimits{MaxTicks: slice}); err != nil {
			s.k.DestroyProcess(snap)
			return finish(err)
		}
		s.sample()
		// Snapshot "persisted": release the old view.
		s.k.DestroyProcess(snap)
		s.requests++
	}
	return finish(nil)
}

// forkstorm launches Workers children back to back without waiting,
// holding every one alive at once — the burst that floods the run
// queue — then drains and reaps the whole wave, Requests times.
func (s *Server) forkstorm() error {
	burst := s.cfg.Workers
	for wave := 0; wave < s.cfg.Requests; wave++ {
		cmds := make([]*sim.Cmd, 0, burst)
		for j := 0; j < burst; j++ {
			cmd := s.sys.Command("true").Via(s.cfg.Via)
			if err := cmd.Start(); err != nil {
				for _, started := range cmds {
					started.Process.Kill()
					started.Wait()
				}
				return err
			}
			cmds = append(cmds, cmd)
			s.creations++
		}
		s.sample()
		for _, cmd := range cmds {
			if err := cmd.Wait(); err != nil {
				return err
			}
			s.requests++
		}
	}
	return nil
}
