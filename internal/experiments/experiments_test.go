package experiments

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/mem"
	"repro/sim"
	"repro/sim/cluster"
	"repro/sim/fleet"
	"repro/sim/load"
)

// TestCreationSteadyState: from the second creation on, a creation
// cell's parent pays the same for every child. For every method the
// creation sweeps use, a third creation costs exactly the second's
// virtual time and PTE copies, so one timed creation after one warm-up
// is the steady state, and measure reports it.
func TestCreationSteadyState(t *testing.T) {
	var keys []creation
	for _, size := range []uint64{MiB, 2 * MiB, 64 * MiB} {
		for _, m := range []core.Method{
			core.MethodForkExec, core.MethodVforkExec, core.MethodSpawn,
			core.MethodBuilder, core.MethodEmulatedForkExec, core.MethodForkEagerExec,
		} {
			keys = append(keys, creation{size: size, method: m})
		}
		keys = append(keys, creation{size: size, huge: true, method: core.MethodForkExec})
	}
	for _, c := range keys {
		k, parent, err := c.boot()
		if err != nil {
			t.Fatal(err)
		}
		var virt [3]cost.Ticks
		var ptes [3]uint64
		for i := range virt {
			if virt[i], ptes[i], err = c.once(k, parent); err != nil {
				t.Fatal(err)
			}
		}
		if virt[2] != virt[1] || ptes[2] != ptes[1] {
			t.Errorf("%v from %s (huge %v): third creation %v/%d PTEs, second %v/%d",
				c.method, load.HumanBytes(c.size), c.huge, virt[2], ptes[2], virt[1], ptes[1])
		}
		if err := c.measure(); err != nil {
			t.Fatal(err)
		}
		if c.virt != virt[1] || c.ptes != ptes[1] {
			t.Errorf("%v from %s (huge %v): measure %v/%d PTEs, second creation %v/%d",
				c.method, load.HumanBytes(c.size), c.huge, c.virt, c.ptes, virt[1], ptes[1])
		}
	}
}

// TestFigure1Shape checks the paper's qualitative claims on the golden
// sweep: fork+exec grows roughly linearly with parent size, vfork+exec
// and posix_spawn stay flat, fork beats spawn for tiny parents, and
// the crossover lands in the low-MiB range.
func TestFigure1Shape(t *testing.T) {
	s, err := Figure1(GiB)
	if err != nil {
		t.Fatalf("Figure1: %v", err)
	}
	const fork, vfork, spawn = 0, 1, 2 // figure1Methods' order
	get := func(r []cell, i int) float64 { return r[i].create.virt.Micros() }
	small, big := s.rows[0], s.rows[len(s.rows)-1]
	smallSize, bigSize := load.HumanBytes(small[0].create.size), load.HumanBytes(big[0].create.size)

	// fork+exec grows with size.
	fSmall, fBig := get(small, fork), get(big, fork)
	if fBig < 8*fSmall {
		t.Errorf("fork+exec not scaling: %0.1fµs at %s vs %0.1fµs at %s", fSmall, smallSize, fBig, bigSize)
	}

	// spawn and vfork+exec are flat (within 25%).
	for _, i := range []int{spawn, vfork} {
		a, b := get(small, i), get(big, i)
		if b > 1.25*a || a > 1.25*b {
			t.Errorf("%v not flat: %0.1fµs at %s vs %0.1fµs at %s", figure1Methods[i], a, smallSize, b, bigSize)
		}
	}

	// fork beats spawn when the parent is tiny...
	if fSmall >= get(small, spawn) {
		t.Errorf("fork+exec (%0.1fµs) should beat spawn (%0.1fµs) at %s", fSmall, get(small, spawn), smallSize)
	}
	// ...and loses by a wide margin when it is large.
	if fBig <= 3*get(big, spawn) {
		t.Errorf("fork+exec (%0.1fµs) should be ≫ spawn (%0.1fµs) at %s", fBig, get(big, spawn), bigSize)
	}

	// The crossover sits in the low-MiB range (paper: ~1 MiB).
	cx := crossover(s.rows)
	if cx == 0 {
		t.Fatalf("no crossover found")
	}
	if cx < 512*KiB || cx > 16*MiB {
		t.Errorf("crossover at %s, want within [512KiB, 16MiB]", load.HumanBytes(cx))
	}
	t.Logf("\n%s", s.Render())
}

// TestFigure1Deterministic: two Figure 1 sweeps, whose cells run in
// parallel, render the same bytes.
func TestFigure1Deterministic(t *testing.T) {
	a, err := Figure1(4 * MiB)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Figure1(4 * MiB)
	if err != nil {
		t.Fatal(err)
	}
	if a.Render() != b.Render() {
		t.Errorf("two identical Figure1 runs rendered differently:\n%s\n%s", a.Render(), b.Render())
	}
}

// TestCalibrationSentence: the calibration that README.md and
// cost.Model's doc comment state is what the creation cells measure:
// fork+exec from an empty parent, posix_spawn at every Figure 1 size,
// fork+exec's growth per dirty MiB from 32 to 64 MiB, and Figure 1's
// crossover. The comparison ignores line wrapping and comment
// markers.
func TestCalibrationSentence(t *testing.T) {
	fig, err := Figure1(64 * MiB)
	if err != nil {
		t.Fatal(err)
	}
	minimal := creation{method: core.MethodForkExec}
	if err := minimal.measure(); err != nil {
		t.Fatal(err)
	}
	spawn := fig.rows[0][2].create
	for _, r := range fig.rows {
		if r[2].create.virt != spawn.virt {
			t.Errorf("posix_spawn not flat: %v at %s, %v at %s",
				spawn.virt, load.HumanBytes(spawn.size), r[2].create.virt, load.HumanBytes(r[2].create.size))
		}
	}
	lo, hi := fig.rows[len(fig.rows)-2][0].create, fig.rows[len(fig.rows)-1][0].create
	perMiB := float64(hi.virt-lo.virt) / float64((hi.size-lo.size)/MiB) / float64(cost.Microsecond)
	sentence := fmt.Sprintf("a minimal fork+exec takes %.1f µs from a parent with no dirty memory, "+
		"posix_spawn takes %.1f µs at every parent size, fork+exec grows linearly with the page-table "+
		"entries it copies, by %.1f µs per dirty MiB, and spawn overtakes fork+exec at a %s parent.",
		minimal.virt.Micros(), spawn.virt.Micros(), perMiB, load.HumanBytes(crossover(fig.rows)))
	flatten := func(s string) string { return strings.Join(strings.Fields(strings.ReplaceAll(s, "//", " ")), " ") }
	for _, path := range []string{"../../README.md", "../cost/cost.go"} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(flatten(string(data)), sentence) {
			t.Errorf("%s does not state the measured calibration:\n%s", path, sentence)
		}
	}
}

func TestTable1(t *testing.T) {
	res, err := Table1()
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	want := map[string][]string{
		"child sees parent's memory":       {"yes", "yes", "no", "no"},
		"memory isolated after create":     {"yes", "NO (shared)", "fresh", "fresh"},
		"descriptors inherited implicitly": {"yes", "yes", "yes", "no"},
		"O_CLOEXEC honoured":               {"closed", "closed", "closed", "n/a (opt-in)"},
		"signal handlers survive":          {"yes (stale ptr)", "yes (stale ptr)", "reset", "reset"},
		"file offsets shared":              {"yes (shared)", "yes (shared)", "yes (shared)", "not inherited"},
		"safe with threads+locks":          {"NO (deadlock)", "NO (deadlock)", "yes", "yes"},
	}
	for _, row := range res.Rows {
		exp, ok := want[row.Property]
		if !ok {
			continue
		}
		for i, cell := range row.Cells {
			if cell != exp[i] {
				t.Errorf("%s[%s] = %q, want %q", row.Property, res.Columns[i], cell, exp[i])
			}
		}
	}
	// O(1) row: fork must be Θ(size), spawn/builder/vfork O(1).
	for _, row := range res.Rows {
		if row.Property != "cost O(1) in parent size" {
			continue
		}
		if row.Cells[0] == "yes" {
			t.Errorf("fork claimed O(1): %v", row.Cells)
		}
		for i := 1; i < 4; i++ {
			if row.Cells[i] != "yes" {
				t.Errorf("%s not O(1): %q", res.Columns[i], row.Cells[i])
			}
		}
	}
	t.Logf("\n%s", res.Render())
}

func TestCowTax(t *testing.T) {
	res, err := CowTax()
	if err != nil {
		t.Fatalf("CowTax: %v", err)
	}
	if res.ParentPerPage < 5*res.PreForkPerPage {
		t.Errorf("COW tax too small: pre=%v parent-after=%v", res.PreForkPerPage, res.ParentPerPage)
	}
	if res.PageCopiesParent != res.Pages {
		t.Errorf("parent copied %d frames, want %d", res.PageCopiesParent, res.Pages)
	}
	// The child rewrites after the parent already copied: every
	// frame is back to a single reference, so the child reclaims in
	// place — cheaper than copying.
	if res.ChildPerPage >= res.ParentPerPage {
		t.Errorf("child per-page %v should be below parent's %v (reclaim path)", res.ChildPerPage, res.ParentPerPage)
	}
	t.Logf("\n%s", res.Render())
}

func TestHugePages(t *testing.T) {
	s, err := HugePages(512 * MiB)
	if err != nil {
		t.Fatalf("HugePages: %v", err)
	}
	if want := len(sizeSweep(2*MiB, 512*MiB)); len(s.rows) != want {
		t.Fatalf("%d rows, want %d: one per size from 2MiB to 512MiB", len(s.rows), want)
	}
	for _, r := range s.rows {
		small, huge := r[0].create, r[1].create
		if small.ptes != huge.ptes*512 {
			t.Errorf("%s: PTE ratio %d/%d, want 512x", load.HumanBytes(small.size), small.ptes, huge.ptes)
		}
		if huge.virt >= small.virt {
			t.Errorf("%s: huge fork (%v) not faster than 4K fork (%v)", load.HumanBytes(small.size), huge.virt, small.virt)
		}
	}
	t.Logf("\n%s", s.Render())
}

func TestOvercommit(t *testing.T) {
	res, err := Overcommit()
	if err != nil {
		t.Fatalf("Overcommit: %v", err)
	}
	for _, o := range res.Outcomes {
		switch {
		case o.Policy == mem.CommitStrict && o.ParentFrac > 0.5:
			if o.ForkOK {
				t.Errorf("strict fork of %.0f%% parent should fail", o.ParentFrac*100)
			}
		case o.Policy == mem.CommitHeuristic && o.ParentFrac > 0.5:
			if !o.ForkOK {
				t.Errorf("heuristic fork of %.0f%% parent should succeed", o.ParentFrac*100)
			}
			if o.ChildTouch != "OOM-KILL" {
				t.Errorf("heuristic child touch of %.0f%% parent = %q, want OOM-KILL", o.ParentFrac*100, o.ChildTouch)
			}
		case o.ParentFrac < 0.3:
			if !o.ForkOK || o.ChildTouch != "ok" {
				t.Errorf("%v/%.0f%%: fork=%v touch=%q, want clean success", o.Policy, o.ParentFrac*100, o.ForkOK, o.ChildTouch)
			}
		}
	}
	t.Logf("\n%s", res.Render())
}

func TestCompose(t *testing.T) {
	res, err := Compose()
	if err != nil {
		t.Fatalf("Compose: %v", err)
	}
	for _, c := range res.Cases {
		if !c.Pass {
			t.Errorf("%s: expected %q, got %q", c.Name, c.Expected, c.Got)
		}
	}
	t.Logf("\n%s", res.Render())
}

func TestScale(t *testing.T) {
	s, err := Scale(256 * MiB)
	if err != nil {
		t.Fatalf("Scale: %v", err)
	}
	// At 32 MiB, spawn and builder should beat fork, and emulated
	// fork should be the slowest by far.
	perf := map[core.Method]float64{}
	for _, r := range s.rows {
		for _, c := range r {
			if c.create.size == 32*MiB {
				perf[c.create.method] = 1e9 / float64(c.create.virt)
			}
		}
	}
	if perf[core.MethodSpawn] <= perf[core.MethodForkExec] {
		t.Errorf("spawn (%f/s) should beat fork (%f/s) at 32MiB", perf[core.MethodSpawn], perf[core.MethodForkExec])
	}
	if perf[core.MethodEmulatedForkExec] >= perf[core.MethodForkExec] {
		t.Errorf("emulated fork (%f/s) should be slower than kernel fork (%f/s)", perf[core.MethodEmulatedForkExec], perf[core.MethodForkExec])
	}
	t.Logf("\n%s", s.Render())
}

func TestAblations(t *testing.T) {
	s, err := Ablations(128 * MiB)
	if err != nil {
		t.Fatalf("Ablations: %v", err)
	}
	if want := len(sizeSweep(4*MiB, 128*MiB)); len(s.rows) != want {
		t.Fatalf("%d rows, want %d: one per size from 4MiB to 128MiB", len(s.rows), want)
	}
	for _, r := range s.rows {
		cow, eager := r[0].create, r[1].create
		if eager.virt <= cow.virt {
			t.Errorf("%s: eager fork (%v) should cost more than COW (%v)",
				load.HumanBytes(cow.size), eager.virt, cow.virt)
		}
	}
	if !strings.Contains(s.tail, "default kernel:                 deadlock\n") {
		t.Errorf("without mitigation: %q, want deadlock", s.tail)
	}
	if strings.Contains(s.tail, "with DenyMultithreadedFork:     deadlock") {
		t.Errorf("mitigation did not prevent the deadlock: %q", s.tail)
	}
	t.Logf("\n%s", s.Render())
}

// The claim-shape tests below read the cells `forkbench all` prints:
// each sweep runs at the -max its forkbench entry clamps 1GiB to, so
// the golden and these assertions hold the same numbers.

// TestServerClaimShape checks E8's qualitative claim on the golden
// sweep: prefork-server throughput under fork+exec falls as the server
// heap grows, while spawn's and the builder's stay flat and above it.
func TestServerClaimShape(t *testing.T) {
	s, err := ServerClaim(256 * MiB)
	if err != nil {
		t.Fatalf("ServerClaim: %v", err)
	}
	get := func(via sim.Strategy, heap uint64) float64 {
		for _, row := range s.rows {
			for _, c := range row {
				if c.cfg.Via == via && c.cfg.HeapBytes == heap {
					return c.m.RequestsPerVSec
				}
			}
		}
		t.Fatalf("missing point %v/%d", via, heap)
		return 0
	}
	small, big := s.rows[0][0].cfg.HeapBytes, s.rows[len(s.rows)-1][0].cfg.HeapBytes
	if fs, fb := get(sim.ForkExec, small), get(sim.ForkExec, big); fb >= fs/2 {
		t.Errorf("fork throughput did not collapse with heap: %0.f → %.0f req/vs", fs, fb)
	}
	if ss, sb := get(sim.Spawn, small), get(sim.Spawn, big); sb < ss*0.95 {
		t.Errorf("spawn throughput not flat: %.0f → %.0f req/vs", ss, sb)
	}
	for _, via := range []sim.Strategy{sim.Spawn, sim.Builder} {
		if get(via, big) <= get(sim.ForkExec, big) {
			t.Errorf("%v does not beat fork+exec at %s", via, load.HumanBytes(big))
		}
	}
	if r := s.Render(); len(r) == 0 {
		t.Error("empty render")
	}
}

// TestFleetClaimShape checks E10's qualitative claims on the golden
// sweep: the spawn fleet out-serves the fork fleet at every size, the
// rolling wave's re-warm tax is higher under fork than spawn, and both
// fleet throughput and the restart tax scale linearly with the fleet.
func TestFleetClaimShape(t *testing.T) {
	s, err := FleetClaim(64 * MiB)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.rows) != 3 {
		t.Fatalf("%d rows, want fleets of 2, 4 and 8", len(s.rows))
	}
	for _, r := range s.rows {
		machines, fork, spawn := r[0].fleet.Machines, r[0].fr.Aggregate, r[1].fr.Aggregate
		if spawn.RequestsPerVSec <= fork.RequestsPerVSec {
			t.Errorf("%d machines: spawn fleet (%.0f req/s) does not beat fork fleet (%.0f req/s)",
				machines, spawn.RequestsPerVSec, fork.RequestsPerVSec)
		}
		if fork.RestartNanos <= spawn.RestartNanos {
			t.Errorf("%d machines: fork restart tax (%d) not above spawn's (%d)",
				machines, fork.RestartNanos, spawn.RestartNanos)
		}
	}
	// The wave's total tax grows with the fleet: machines are
	// identical, so the aggregate is exactly proportional — each
	// doubling of the fleet doubles it.
	for i := 1; i < len(s.rows); i++ {
		small, big := s.rows[i-1][0], s.rows[i][0]
		st, bt := small.fr.Aggregate.RestartNanos, big.fr.Aggregate.RestartNanos
		if bt*uint64(small.fleet.Machines) != st*uint64(big.fleet.Machines) {
			t.Errorf("fork restart tax not proportional: %d machines pay %d, %d machines pay %d",
				small.fleet.Machines, st, big.fleet.Machines, bt)
		}
	}
	if r := s.Render(); len(r) == 0 {
		t.Error("empty render")
	}
}

// TestCPUSweep is the acceptance bar for the SMP refactor's claim:
// fork's per-snapshot COW/shootdown tax grows monotonically with the
// core count, while the fork-less snapshot pays no IPIs at any count.
func TestCPUSweep(t *testing.T) {
	s, err := CPUSweep(64 * MiB)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.rows) != 4 {
		t.Fatalf("%d rows", len(s.rows))
	}
	prev := -1.0
	for _, r := range s.rows {
		cpus, fork := r[0].cfg.CPUs, ipisPerSnapshot(r[0].m)
		if fork <= prev {
			t.Errorf("fork IPIs/snapshot not monotonic: %.0f at %d CPUs after %.0f",
				fork, cpus, prev)
		}
		prev = fork
		if cpus == 1 && fork != 0 {
			t.Errorf("1-CPU fork charged %.0f IPIs/snapshot", fork)
		}
		if flat := ipisPerSnapshot(r[1].m); flat != 0 {
			t.Errorf("fork-less snapshot at %d CPUs charged %.0f IPIs", cpus, flat)
		}
		if r[0].m.PageCopies == 0 {
			t.Errorf("no COW tax at %d CPUs — the snapshot is not being mutated under", cpus)
		}
	}
	// The parallel farm: spawn's throughput advantage must not
	// shrink as cores grow (fork serializes on the parent's page
	// tables; spawn does not).
	farm := func(r []cell) float64 { return ratio(r[3].m.RequestsPerVSec, r[2].m.RequestsPerVSec) }
	ratioFirst, ratioLast := farm(s.rows[0]), farm(s.rows[len(s.rows)-1])
	if ratioLast < ratioFirst*0.9 {
		t.Errorf("spawn/fork farm-throughput ratio shrank with cores: %.2f → %.2f", ratioFirst, ratioLast)
	}
	if r := s.Render(); len(r) == 0 {
		t.Error("empty render")
	}
}

// TestChaosClaimShape checks E11's qualitative claim on the golden
// sweep: under identical deterministic fault waves the fork server
// loses a larger share of its traffic than the spawn server (fork's
// Θ(heap) commit reservations are what the pressure windows refuse),
// both servers survive to the end of the run, and the experiment is
// deterministic.
func TestChaosClaimShape(t *testing.T) {
	s, err := ChaosClaim(64 * MiB)
	if err != nil {
		t.Fatalf("ChaosClaim: %v", err)
	}
	if len(s.rows) != 2 {
		t.Fatalf("%d rows, want fork and spawn", len(s.rows))
	}
	fork, spawn := s.rows[0], s.rows[1]
	if fork[0].cfg.Via.String() != "fork+exec" || spawn[0].cfg.Via.String() != "posix_spawn" {
		t.Fatalf("unexpected strategy order: %q, %q", fork[0].cfg.Via, spawn[0].cfg.Via)
	}
	for _, r := range s.rows {
		clean, chaos := r[0], r[1]
		if clean.m.FailedRequests != 0 {
			t.Errorf("%s clean run lost %d requests", clean.cfg.Via, clean.m.FailedRequests)
		}
		if got := chaos.m.Requests + chaos.m.FailedRequests; got != uint64(chaos.cfg.Requests) {
			t.Errorf("%s chaos run accounted %d requests, want %d", chaos.cfg.Via, got, chaos.cfg.Requests)
		}
	}
	if fork[1].m.FailedRequests == 0 {
		t.Error("fault waves never hit the fork server")
	}
	if fs, ss := survival(fork[1].m), survival(spawn[1].m); fs >= ss {
		t.Errorf("fork survival %.2f >= spawn survival %.2f; the overcommit asymmetry is gone", fs, ss)
	}
	// Deterministic: the whole table is a pure function of the heap.
	again, err := ChaosClaim(64 * MiB)
	if err != nil {
		t.Fatal(err)
	}
	if s.Render() != again.Render() {
		t.Error("two identical ChaosClaim runs rendered differently")
	}
	if len(s.Render()) == 0 {
		t.Error("empty render")
	}
}

// TestScaleOutClaimShape pins E12's headline: identical pools chasing
// the same surge, and the fork pool's measured scale-out latency at a
// 64 MiB heap is at least twice the spawn pool's — growing with the
// heap, while spawn's stays flat. The unrounded warm-up ratio rises at
// every step of the ladder, which whole reconcile steps can hide.
func TestScaleOutClaimShape(t *testing.T) {
	s, err := ScaleOutClaim(64 * MiB)
	if err != nil {
		t.Fatalf("ScaleOutClaim: %v", err)
	}
	if len(s.rows) != len(ladder(64*MiB)) {
		t.Fatalf("%d rows, want one per heap size", len(s.rows))
	}
	for _, r := range s.rows {
		heap, fork, spawn := r[0].cluster.Pools[0].HeapBytes, forkPool(r), spawnPool(r)
		if len(fork.ScaleOuts) == 0 || len(spawn.ScaleOuts) == 0 {
			t.Fatalf("heap %s: a pool never scaled out", load.HumanBytes(heap))
		}
		if fork.Served != spawn.Served || fork.Failed != 0 {
			t.Errorf("heap %s: pools saw different demand (%d vs %d served, %d failed)",
				load.HumanBytes(heap), fork.Served, spawn.Served, fork.Failed)
		}
	}
	small, big := s.rows[0], s.rows[len(s.rows)-1]
	if ratio := scaleOutRatio(big); ratio < 2 {
		t.Errorf("64 MiB fork:spawn scale-out ratio %.2fx, want >= 2x", ratio)
	}
	if forkPool(big).MeanScaleOutNanos <= forkPool(small).MeanScaleOutNanos {
		t.Errorf("fork scale-out did not grow with the heap: %d -> %d",
			forkPool(small).MeanScaleOutNanos, forkPool(big).MeanScaleOutNanos)
	}
	for i := 1; i < len(s.rows); i++ {
		lo, hi := warmupRatio(s.rows[i-1]), warmupRatio(s.rows[i])
		if hi <= lo {
			t.Errorf("warm-up fork:spawn did not rise from %s to %s: %.2fx -> %.2fx",
				load.HumanBytes(s.rows[i-1][0].cluster.Pools[0].HeapBytes),
				load.HumanBytes(s.rows[i][0].cluster.Pools[0].HeapBytes), lo, hi)
		}
	}
	if forkPool(big).SLORate >= spawnPool(big).SLORate {
		t.Errorf("fork pool SLO %.2f not below spawn %.2f at 64 MiB",
			forkPool(big).SLORate, spawnPool(big).SLORate)
	}
	for _, want := range []string{"E12", "fork scale-out", "spawn scale-out", "warm-up fork:spawn", "64MiB"} {
		if r := s.Render(); !strings.Contains(r, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

// TestNetClaimShape pins E15's headline: the same backend restart
// behind the netlb balancer is a retry storm under fork and a
// non-event under spawn, because only fork's Θ(heap) worker re-warm
// overruns the client retry timeout.
func TestNetClaimShape(t *testing.T) {
	s, err := NetClaim(64 * MiB)
	if err != nil {
		t.Fatalf("NetClaim: %v", err)
	}
	if len(s.rows) != 2 {
		t.Fatalf("%d rows, want fork and spawn", len(s.rows))
	}
	fork, spawn := s.rows[0][0], s.rows[1][0]
	if fork.cfg.Via.String() != "fork+exec" || spawn.cfg.Via.String() != "posix_spawn" {
		t.Fatalf("unexpected strategy order: %q, %q", fork.cfg.Via, spawn.cfg.Via)
	}
	for _, c := range []cell{fork, spawn} {
		if got := c.m.Requests + c.m.FailedRequests; got != uint64(c.cfg.Requests) {
			t.Errorf("%s accounted %d requests, want %d", c.cfg.Via, got, c.cfg.Requests)
		}
	}
	if fork.m.NetTimeouts == 0 || fork.m.NetRetries == 0 {
		t.Errorf("fork restart caused no storm: %d timeouts, %d retries",
			fork.m.NetTimeouts, fork.m.NetRetries)
	}
	if spawn.m.NetTimeouts != 0 {
		t.Errorf("spawn restart timed out %d attempts; its re-warm should fit the timeout", spawn.m.NetTimeouts)
	}
	if fork.m.VirtualNanos <= spawn.m.VirtualNanos {
		t.Errorf("fork makespan %dns not above spawn %dns", fork.m.VirtualNanos, spawn.m.VirtualNanos)
	}
	// Deterministic: the whole table is a pure function of the heap.
	again, err := NetClaim(64 * MiB)
	if err != nil {
		t.Fatal(err)
	}
	if s.Render() != again.Render() {
		t.Error("two identical NetClaim runs rendered differently")
	}
}

func TestMigrateClaimShape(t *testing.T) {
	s, err := MigrateClaim(64 * MiB)
	if err != nil {
		t.Fatalf("MigrateClaim: %v", err)
	}
	if want := len(migrateStrategies) * len(ladder(64*MiB)); len(s.rows) != want {
		t.Fatalf("%d rows, want %d: 4 strategies x the heap ladder", len(s.rows), want)
	}
	byStrategy := map[string][]cell{}
	for _, r := range s.rows {
		byStrategy[r[0].cfg.Via.String()] = append(byStrategy[r[0].cfg.Via.String()], r[0])
	}
	// The fork family's downtime and page traffic grow with the heap.
	for _, name := range []string{"fork+exec", "fork(eager)+exec"} {
		cells := byStrategy[name]
		small, big := cells[0], cells[len(cells)-1]
		want := uint64(small.cfg.Requests)
		if small.m.Requests != want || big.m.Requests != want || small.m.MigrateRefused != 0 {
			t.Fatalf("%s: migration did not complete: %+v", name, small.m)
		}
		if big.m.MigrateDowntimeNanos <= small.m.MigrateDowntimeNanos {
			t.Errorf("%s downtime flat across heaps: %d vs %d ns",
				name, small.m.MigrateDowntimeNanos, big.m.MigrateDowntimeNanos)
		}
		if big.m.MigratePagesSent <= small.m.MigratePagesSent {
			t.Errorf("%s pages flat across heaps: %d vs %d",
				name, small.m.MigratePagesSent, big.m.MigratePagesSent)
		}
	}
	// Spawn moves for the same price at any heap size.
	spawn := byStrategy["posix_spawn"]
	for _, c := range spawn[1:] {
		if c.m.MigrateDowntimeNanos != spawn[0].m.MigrateDowntimeNanos {
			t.Errorf("spawn downtime varies with heap: %d vs %d ns",
				spawn[0].m.MigrateDowntimeNanos, c.m.MigrateDowntimeNanos)
		}
		if c.m.MigratePagesSent != spawn[0].m.MigratePagesSent {
			t.Errorf("spawn pages vary with heap: %d vs %d",
				spawn[0].m.MigratePagesSent, c.m.MigratePagesSent)
		}
	}
	// The vfork borrower is refused cleanly at every size: every
	// migration the cell attempts.
	for _, c := range byStrategy["vfork+exec"] {
		if c.m.Requests != 0 || c.m.MigrateRefused != uint64(c.cfg.Requests) {
			t.Errorf("vfork at %s: migrated %d, refused %d; want 0/%d",
				load.HumanBytes(c.cfg.HeapBytes), c.m.Requests, c.m.MigrateRefused, c.cfg.Requests)
		}
		if c.m.MigrateDowntimeNanos != 0 || c.m.NetPacketsSent != 0 {
			t.Errorf("vfork refusal still cost: %dns, %d pkts",
				c.m.MigrateDowntimeNanos, c.m.NetPacketsSent)
		}
	}
	// Deterministic: the whole table is a pure function of the heap
	// ladder.
	again, err := MigrateClaim(64 * MiB)
	if err != nil {
		t.Fatal(err)
	}
	if s.Render() != again.Render() {
		t.Error("two identical MigrateClaim runs rendered differently")
	}
}

// TestSweepReturnsCellSpecError: a sweep with an invalid cell — a load
// config, a fleet spec or a cluster spec — returns that cell's
// *load.SpecError from run, so no column renders a missing outcome.
func TestSweepReturnsCellSpecError(t *testing.T) {
	valid := cell{cfg: load.Config{Scenario: load.Prefork, Via: sim.Spawn, Requests: 1, HeapBytes: MiB}}
	for _, c := range []struct {
		bad         cell
		spec, field string
	}{
		{cell{cfg: load.Config{Scenario: load.Prefork, Requests: -1}}, "load.Config", "Requests"},
		{cell{fleet: &fleet.Spec{Machines: -1}}, "fleet.Spec", "Machines"},
		{cell{cluster: &cluster.Spec{}}, "cluster.Spec", "Pools"},
	} {
		s := &Sweep{
			rows: [][]cell{{valid}, {c.bad}},
			cols: []column{{"served", func(r []cell) string { return fmt.Sprint(r[0].m.Requests) }}},
		}
		got, err := s.run()
		var se *load.SpecError
		if !errors.As(err, &se) || se.Spec != c.spec || se.Field != c.field {
			t.Errorf("%s cell: err %v, want a *load.SpecError on %s", c.spec, err, c.field)
		}
		if got != nil {
			t.Errorf("%s cell: run returned a sweep to render along with %v", c.spec, err)
		}
	}
}
