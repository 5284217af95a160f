package experiments

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/sim"
	"repro/sim/load"
)

// TestFigure1Shape checks the paper's qualitative claims on a reduced
// sweep: fork+exec grows roughly linearly with parent size, vfork+exec
// and posix_spawn stay flat, fork beats spawn for tiny parents, and
// the crossover lands in the low-MiB range.
func TestFigure1Shape(t *testing.T) {
	res, err := Figure1(Fig1Config{MinBytes: 256 * KiB, MaxBytes: 64 * MiB, Reps: 3})
	if err != nil {
		t.Fatalf("Figure1: %v", err)
	}
	get := func(m core.Method, size uint64) float64 {
		for _, p := range res.Points {
			if p.Method == m && p.SizeBytes == size {
				return p.Mean.Micros()
			}
		}
		t.Fatalf("missing point %v/%d", m, size)
		return 0
	}
	small, big := uint64(256*KiB), uint64(64*MiB)

	// fork+exec grows with size.
	fSmall, fBig := get(core.MethodForkExec, small), get(core.MethodForkExec, big)
	if fBig < 8*fSmall {
		t.Errorf("fork+exec not scaling: %0.1fµs at %s vs %0.1fµs at %s",
			fSmall, load.HumanBytes(small), fBig, load.HumanBytes(big))
	}

	// spawn and vfork+exec are flat (within 25%).
	for _, m := range []core.Method{core.MethodSpawn, core.MethodVforkExec} {
		a, b := get(m, small), get(m, big)
		if b > 1.25*a || a > 1.25*b {
			t.Errorf("%v not flat: %0.1fµs at %s vs %0.1fµs at %s", m, a, load.HumanBytes(small), b, load.HumanBytes(big))
		}
	}

	// fork beats spawn when the parent is tiny...
	if fSmall >= get(core.MethodSpawn, small) {
		t.Errorf("fork+exec (%0.1fµs) should beat spawn (%0.1fµs) at %s",
			fSmall, get(core.MethodSpawn, small), load.HumanBytes(small))
	}
	// ...and loses by a wide margin when it is large.
	if fBig <= 3*get(core.MethodSpawn, big) {
		t.Errorf("fork+exec (%0.1fµs) should be ≫ spawn (%0.1fµs) at %s",
			fBig, get(core.MethodSpawn, big), load.HumanBytes(big))
	}

	// The crossover sits in the low-MiB range (paper: ~1 MiB).
	cx, ok := res.Crossover()
	if !ok {
		t.Fatalf("no crossover found")
	}
	if cx < 512*KiB || cx > 16*MiB {
		t.Errorf("crossover at %s, want within [512KiB, 16MiB]", load.HumanBytes(cx))
	}
	t.Logf("\n%s\ncrossover at %s", res.Render(), load.HumanBytes(cx))
}

func TestFigure1Deterministic(t *testing.T) {
	cfg := Fig1Config{MinBytes: 1 * MiB, MaxBytes: 4 * MiB, Reps: 2}
	a, err := Figure1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Figure1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Points) != len(b.Points) {
		t.Fatalf("point counts differ")
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Errorf("run diverged at %d: %+v vs %+v", i, a.Points[i], b.Points[i])
		}
	}
	// Within a run, reps are identical too (min == max).
	for _, p := range a.Points {
		if p.Min != p.Max {
			t.Errorf("%v/%s: min %v != max %v (nondeterminism)", p.Method, load.HumanBytes(p.SizeBytes), p.Min, p.Max)
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
	res, err := CowTax(16 * MiB)
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
	res, err := HugePages(4*MiB, 64*MiB)
	if err != nil {
		t.Fatalf("HugePages: %v", err)
	}
	for _, size := range SizeSweep(4*MiB, 64*MiB) {
		var small, huge HugePoint
		for _, p := range res.Points {
			if p.SizeBytes != size {
				continue
			}
			if p.Huge {
				huge = p
			} else {
				small = p
			}
		}
		if small.PTECopies != huge.PTECopies*512 {
			t.Errorf("%s: PTE ratio %d/%d, want 512x", load.HumanBytes(size), small.PTECopies, huge.PTECopies)
		}
		if huge.ForkExec >= small.ForkExec {
			t.Errorf("%s: huge fork (%v) not faster than 4K fork (%v)", load.HumanBytes(size), huge.ForkExec, small.ForkExec)
		}
	}
	t.Logf("\n%s", res.Render())
}

func TestOvercommit(t *testing.T) {
	res, err := Overcommit(128 * MiB)
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
	res, err := Scale(1*MiB, 32*MiB)
	if err != nil {
		t.Fatalf("Scale: %v", err)
	}
	// At 32 MiB, spawn and builder should beat fork, and emulated
	// fork should be the slowest by far.
	perf := map[core.Method]float64{}
	for _, p := range res.Points {
		if p.SizeBytes == 32*MiB {
			perf[p.Method] = p.PerSecond
		}
	}
	if perf[core.MethodSpawn] <= perf[core.MethodForkExec] {
		t.Errorf("spawn (%f/s) should beat fork (%f/s) at 32MiB", perf[core.MethodSpawn], perf[core.MethodForkExec])
	}
	if perf[core.MethodEmulatedForkExec] >= perf[core.MethodForkExec] {
		t.Errorf("emulated fork (%f/s) should be slower than kernel fork (%f/s)", perf[core.MethodEmulatedForkExec], perf[core.MethodForkExec])
	}
	t.Logf("\n%s", res.Render())
}

func TestAblations(t *testing.T) {
	res, err := Ablations(16 * MiB)
	if err != nil {
		t.Fatalf("Ablations: %v", err)
	}
	for _, row := range res.EagerRows {
		if row.Eager <= row.COW {
			t.Errorf("%s: eager fork (%v) should cost more than COW (%v)",
				load.HumanBytes(row.SizeBytes), row.Eager, row.COW)
		}
	}
	if res.MitigationDeadlock != "deadlock" {
		t.Errorf("without mitigation: %q, want deadlock", res.MitigationDeadlock)
	}
	if res.MitigationRefused == "deadlock" {
		t.Errorf("mitigation did not prevent the deadlock")
	}
	t.Logf("\n%s", res.Render())
}

// TestServerClaimShape checks E8's qualitative claim on a reduced
// sweep: prefork-server throughput under fork+exec falls as the server
// heap grows, while spawn's and the builder's stay flat and above it.
func TestServerClaimShape(t *testing.T) {
	res, err := ServerClaim(64*MiB, 16)
	if err != nil {
		t.Fatalf("ServerClaim: %v", err)
	}
	get := func(via sim.Strategy, heap uint64) float64 {
		for _, p := range res.Points {
			if p.Via == via && p.HeapBytes == heap {
				return p.Metrics.RequestsPerVSec
			}
		}
		t.Fatalf("missing point %v/%d", via, heap)
		return 0
	}
	small, big := uint64(16*MiB), uint64(64*MiB)
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
	if r := res.Render(); len(r) == 0 {
		t.Error("empty render")
	}
}

// TestFleetClaimShape checks E10's qualitative claims on a reduced
// sweep: the spawn fleet out-serves the fork fleet at every size, the
// rolling wave's re-warm tax is higher under fork than spawn, and both
// fleet throughput and the restart tax scale linearly with the fleet.
func TestFleetClaimShape(t *testing.T) {
	res, err := FleetClaim(FleetClaimConfig{
		MachineCounts: []int{2, 4},
		Requests:      6,
		HeapBytes:     16 * MiB,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("%d points", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Spawn.Aggregate.RequestsPerVSec <= p.Fork.Aggregate.RequestsPerVSec {
			t.Errorf("%d machines: spawn fleet (%.0f req/s) does not beat fork fleet (%.0f req/s)",
				p.Machines, p.Spawn.Aggregate.RequestsPerVSec, p.Fork.Aggregate.RequestsPerVSec)
		}
		if p.Fork.Aggregate.RestartNanos <= p.Spawn.Aggregate.RestartNanos {
			t.Errorf("%d machines: fork restart tax (%d) not above spawn's (%d)",
				p.Machines, p.Fork.Aggregate.RestartNanos, p.Spawn.Aggregate.RestartNanos)
		}
	}
	// The wave's total tax doubles when the fleet doubles: machines
	// are identical, so the aggregate is exactly proportional.
	small, big := res.Points[0], res.Points[1]
	if big.Fork.Aggregate.RestartNanos != 2*small.Fork.Aggregate.RestartNanos {
		t.Errorf("fork restart tax not proportional: %d machines pay %d, %d machines pay %d",
			small.Machines, small.Fork.Aggregate.RestartNanos,
			big.Machines, big.Fork.Aggregate.RestartNanos)
	}
	if r := res.Render(); len(r) == 0 {
		t.Error("empty render")
	}
}

// TestCPUSweep is the acceptance bar for the SMP refactor's claim:
// fork's per-snapshot COW/shootdown tax grows monotonically with the
// core count, while the fork-less snapshot pays no IPIs at any count.
func TestCPUSweep(t *testing.T) {
	res, err := CPUSweep(CPUSweepConfig{
		HeapBytes: 8 * MiB,
		Snapshots: 3,
		FarmJobs:  4,
		CPUCounts: []int{1, 2, 4, 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("%d points", len(res.Points))
	}
	prev := -1.0
	for _, p := range res.Points {
		fork := p.ForkIPIsPerSnapshot()
		if fork <= prev {
			t.Errorf("fork IPIs/snapshot not monotonic: %.0f at %d CPUs after %.0f",
				fork, p.CPUs, prev)
		}
		prev = fork
		if p.CPUs == 1 && fork != 0 {
			t.Errorf("1-CPU fork charged %.0f IPIs/snapshot", fork)
		}
		if flat := p.FlatIPIsPerSnapshot(); flat != 0 {
			t.Errorf("fork-less snapshot at %d CPUs charged %.0f IPIs", p.CPUs, flat)
		}
		if p.Fork.PageCopies == 0 {
			t.Errorf("no COW tax at %d CPUs — the snapshot is not being mutated under", p.CPUs)
		}
	}
	// The parallel farm: spawn's throughput advantage must not
	// shrink as cores grow (fork serializes on the parent's page
	// tables; spawn does not).
	first := res.Points[0]
	last := res.Points[len(res.Points)-1]
	ratioFirst := first.FarmSpawn.RequestsPerVSec / first.FarmFork.RequestsPerVSec
	ratioLast := last.FarmSpawn.RequestsPerVSec / last.FarmFork.RequestsPerVSec
	if ratioLast < ratioFirst*0.9 {
		t.Errorf("spawn/fork farm-throughput ratio shrank with cores: %.2f → %.2f", ratioFirst, ratioLast)
	}
	if r := res.Render(); len(r) == 0 {
		t.Error("empty render")
	}
}

// TestChaosClaimShape checks E11's qualitative claim on a reduced
// config: under identical deterministic fault waves the fork server
// loses a larger share of its traffic than the spawn server (fork's
// Θ(heap) commit reservations are what the pressure windows refuse),
// both servers survive to the end of the run, and the experiment is
// deterministic.
func TestChaosClaimShape(t *testing.T) {
	cfg := ChaosClaimConfig{HeapBytes: 16 * MiB, Requests: 48}
	res, err := ChaosClaim(cfg)
	if err != nil {
		t.Fatalf("ChaosClaim: %v", err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("%d points, want fork and spawn", len(res.Points))
	}
	fork, spawn := res.Points[0], res.Points[1]
	if fork.Strategy != "fork+exec" || spawn.Strategy != "posix_spawn" {
		t.Fatalf("unexpected strategy order: %q, %q", fork.Strategy, spawn.Strategy)
	}
	for _, p := range res.Points {
		if p.Clean.FailedRequests != 0 {
			t.Errorf("%s clean run lost %d requests", p.Strategy, p.Clean.FailedRequests)
		}
		if got := p.Chaos.Requests + p.Chaos.FailedRequests; got != uint64(cfg.Requests) {
			t.Errorf("%s chaos run accounted %d requests, want %d", p.Strategy, got, cfg.Requests)
		}
	}
	if fork.Chaos.FailedRequests == 0 {
		t.Error("fault waves never hit the fork server")
	}
	if fork.Survival() >= spawn.Survival() {
		t.Errorf("fork survival %.2f >= spawn survival %.2f; the overcommit asymmetry is gone",
			fork.Survival(), spawn.Survival())
	}
	// Deterministic: the whole table is a pure function of the config.
	again, err := ChaosClaim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Render() != again.Render() {
		t.Error("two identical ChaosClaim runs rendered differently")
	}
	if len(res.Render()) == 0 {
		t.Error("empty render")
	}
}

// TestScaleOutClaimShape pins E12's headline: identical pools chasing
// the same surge, and the fork pool's measured scale-out latency at a
// 64 MiB heap is at least twice the spawn pool's — growing with the
// heap, while spawn's stays flat.
func TestScaleOutClaimShape(t *testing.T) {
	cfg := ScaleOutConfig{HeapSizes: []uint64{4 * MiB, 64 * MiB}}
	res, err := ScaleOutClaim(cfg)
	if err != nil {
		t.Fatalf("ScaleOutClaim: %v", err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("%d points, want one per heap size", len(res.Points))
	}
	for _, p := range res.Points {
		if len(p.Fork.ScaleOuts) == 0 || len(p.Spawn.ScaleOuts) == 0 {
			t.Fatalf("heap %s: a pool never scaled out", load.HumanBytes(p.HeapBytes))
		}
		if p.Fork.Served != p.Spawn.Served || p.Fork.Failed != 0 {
			t.Errorf("heap %s: pools saw different demand (%d vs %d served, %d failed)",
				load.HumanBytes(p.HeapBytes), p.Fork.Served, p.Spawn.Served, p.Fork.Failed)
		}
	}
	small, big := res.Points[0], res.Points[1]
	if big.Ratio() < 2 {
		t.Errorf("64 MiB fork:spawn scale-out ratio %.2fx, want >= 2x", big.Ratio())
	}
	if big.Fork.MeanScaleOutNanos <= small.Fork.MeanScaleOutNanos {
		t.Errorf("fork scale-out did not grow with the heap: %d -> %d",
			small.Fork.MeanScaleOutNanos, big.Fork.MeanScaleOutNanos)
	}
	if big.Fork.SLORate >= big.Spawn.SLORate {
		t.Errorf("fork pool SLO %.2f not below spawn %.2f at 64 MiB",
			big.Fork.SLORate, big.Spawn.SLORate)
	}
	for _, want := range []string{"E12", "fork scale-out", "spawn scale-out", "64MiB"} {
		if r := res.Render(); !strings.Contains(r, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

// TestNetClaimShape pins E15's headline: the same backend restart
// behind the netlb balancer is a retry storm under fork and a
// non-event under spawn, because only fork's Θ(heap) worker re-warm
// overruns the client retry timeout.
func TestNetClaimShape(t *testing.T) {
	cfg := NetClaimConfig{}
	res, err := NetClaim(cfg)
	if err != nil {
		t.Fatalf("NetClaim: %v", err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("%d points, want fork and spawn", len(res.Points))
	}
	fork, spawn := res.Points[0], res.Points[1]
	if fork.Strategy != "fork+exec" || spawn.Strategy != "posix_spawn" {
		t.Fatalf("unexpected strategy order: %q, %q", fork.Strategy, spawn.Strategy)
	}
	for _, p := range res.Points {
		if got := p.M.Requests + p.M.FailedRequests; got != uint64(res.Requests) {
			t.Errorf("%s accounted %d requests, want %d", p.Strategy, got, res.Requests)
		}
	}
	if fork.M.NetTimeouts == 0 || fork.M.NetRetries == 0 {
		t.Errorf("fork restart caused no storm: %d timeouts, %d retries",
			fork.M.NetTimeouts, fork.M.NetRetries)
	}
	if spawn.M.NetTimeouts != 0 {
		t.Errorf("spawn restart timed out %d attempts; its re-warm should fit the timeout", spawn.M.NetTimeouts)
	}
	if fork.M.VirtualNanos <= spawn.M.VirtualNanos {
		t.Errorf("fork makespan %dns not above spawn %dns", fork.M.VirtualNanos, spawn.M.VirtualNanos)
	}
	// Deterministic: the whole table is a pure function of the config.
	again, err := NetClaim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Render() != again.Render() {
		t.Error("two identical NetClaim runs rendered differently")
	}
}

func TestMigrateClaimShape(t *testing.T) {
	cfg := MigrateConfig{HeapSizes: []uint64{4 * MiB, 16 * MiB}, Requests: 1}
	res, err := MigrateClaim(cfg)
	if err != nil {
		t.Fatalf("MigrateClaim: %v", err)
	}
	if len(res.Points) != 8 {
		t.Fatalf("%d points, want 4 strategies x 2 heaps", len(res.Points))
	}
	byStrategy := map[string][]MigratePoint{}
	for _, p := range res.Points {
		byStrategy[p.Strategy] = append(byStrategy[p.Strategy], p)
	}
	// The fork family's downtime and page traffic grow with the heap.
	for _, s := range []string{"fork+exec", "fork(eager)+exec"} {
		pts := byStrategy[s]
		small, big := pts[0].M, pts[1].M
		if small.Requests != 1 || big.Requests != 1 || small.MigrateRefused != 0 {
			t.Fatalf("%s: migration did not complete: %+v", s, small)
		}
		if big.MigrateDowntimeNanos <= small.MigrateDowntimeNanos {
			t.Errorf("%s downtime flat across heaps: %d vs %d ns",
				s, small.MigrateDowntimeNanos, big.MigrateDowntimeNanos)
		}
		if big.MigratePagesSent <= small.MigratePagesSent {
			t.Errorf("%s pages flat across heaps: %d vs %d",
				s, small.MigratePagesSent, big.MigratePagesSent)
		}
	}
	// Spawn moves for the same price at any heap size.
	spawn := byStrategy["posix_spawn"]
	if spawn[0].M.MigrateDowntimeNanos != spawn[1].M.MigrateDowntimeNanos {
		t.Errorf("spawn downtime varies with heap: %d vs %d ns",
			spawn[0].M.MigrateDowntimeNanos, spawn[1].M.MigrateDowntimeNanos)
	}
	if spawn[0].M.MigratePagesSent != spawn[1].M.MigratePagesSent {
		t.Errorf("spawn pages vary with heap: %d vs %d",
			spawn[0].M.MigratePagesSent, spawn[1].M.MigratePagesSent)
	}
	// The vfork borrower is refused cleanly at every size.
	for _, p := range byStrategy["vfork+exec"] {
		if p.M.Requests != 0 || p.M.MigrateRefused != 1 {
			t.Errorf("vfork at %s: migrated %d, refused %d; want 0/1",
				load.HumanBytes(p.HeapBytes), p.M.Requests, p.M.MigrateRefused)
		}
		if p.M.MigrateDowntimeNanos != 0 || p.M.NetPacketsSent != 0 {
			t.Errorf("vfork refusal still cost: %dns, %d pkts",
				p.M.MigrateDowntimeNanos, p.M.NetPacketsSent)
		}
	}
	// Deterministic: the whole table is a pure function of the config.
	again, err := MigrateClaim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Render() != again.Render() {
		t.Error("two identical MigrateClaim runs rendered differently")
	}
}
