package main

import (
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/mem"
	"repro/sim"
)

// A workload is one traffic mix. Its ops come in rounds: a round is a
// fixed multiset of ops in a seeded order, so any whole number of
// rounds has the same virtual-time distribution as one, and the
// virtual metrics repeat exactly however many rounds the host clock
// allows. The seed only orders the ops.
type workload struct {
	name   string
	warmup int // ops run untimed after boot, part of set-up
	// hostCPUs is the GOMAXPROCS a run pins, at most the host's CPU
	// count. A single simulated machine runs on one goroutine; with a
	// second P the Go collector's workers run beside it on a CPU a
	// shared host grants unevenly, which made throughput swing by 15%
	// run to run instead of 3%.
	hostCPUs int
	build    func(seed uint64) (instance, error)
}

// instance is a workload's booted machines.
type instance interface {
	// round runs one round of ops, reporting each to rec and tracing
	// it on tr (nil = untraced).
	round(rec *recorder, tr *tracer) error
	// counters reads the cumulative per-layer event counts.
	counters() counts
	// checkEnd runs the whole-run output checks, returning one message
	// per failed check.
	checkEnd(rec *recorder) []string
	// probeSystem returns a warmed machine of the workload for the
	// ladder probes.
	probeSystem() (*sim.System, error)
}

var workloads = []workload{forkServer, spawnServer, cowSnapshot, fleetMix}

// newRNG is the one source of randomness a workload instance draws
// from; the seed is its only input.
func newRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0xf04c)) }

// shuffler hands out a workload's rounds: the same multiset of ops
// every round, in an order drawn from the seed.
type shuffler struct {
	rng *rand.Rand
	ops []int
}

func newShuffler(seed uint64, ops []int) *shuffler {
	return &shuffler{rng: newRNG(seed), ops: ops}
}

// next reshuffles the ops in place and returns them.
func (s *shuffler) next() []int {
	s.rng.Shuffle(len(s.ops), func(i, j int) { s.ops[i], s.ops[j] = s.ops[j], s.ops[i] })
	return s.ops
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// recorder collects one phase's op samples. Safe for concurrent use.
type recorder struct {
	mu sync.Mutex

	host []int64 // host ns per op
	// virtByClass holds the virtual ns of each successful op, by the
	// op's class (heap class, fleet kind) for the per-class checks.
	virtByClass map[int][]int64

	requests  uint64 // simulated requests completed
	attempted uint64 // simulated requests attempted
	lost      uint64 // simulated requests lost to injected faults
	failed    int    // ops that errored or failed a check
	problems  []string
	peakPages uint64 // simulated frames at the highest sample point
}

func newRecorder() *recorder { return &recorder{virtByClass: map[int][]int64{}} }

// opResult is one op's outcome.
type opResult struct {
	class     int
	host      time.Duration
	virt      time.Duration
	requests  uint64
	attempted uint64
	lost      uint64
	peakPages uint64
	err       error // the op errored or failed a check
}

const maxProblems = 8

func (r *recorder) op(o opResult) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.host = append(r.host, int64(o.host))
	r.attempted += o.attempted
	if o.err != nil {
		r.failed++
		if len(r.problems) < maxProblems {
			r.problems = append(r.problems, o.err.Error())
		}
		return
	}
	r.virtByClass[o.class] = append(r.virtByClass[o.class], int64(o.virt))
	r.requests += o.requests
	r.lost += o.lost
	r.peakPages = max(r.peakPages, o.peakPages)
}

func (r *recorder) ops() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.host)
}

// p50 is the median host ns of ops lo..hi-1.
func (r *recorder) p50(lo, hi int) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return nearestRank(slices.Clone(r.host[lo:hi]), 50)
}

// phase is one timed stretch of whole rounds.
type phase struct {
	rec        *recorder
	counts     counts // delta over the phase
	allocBytes uint64 // Go TotalAlloc delta over the phase
	// rate and p50 come from the phase's best windows: the highest op
	// rate of any window, and the lowest median host ns per op.
	rate float64
	p50  int64
}

// phaseWindows is how many windows a phase's host time is cut into. A
// shared host runs the benchmark at a few distinct speeds, stepping
// between them every few seconds as its neighbours come and go, and
// interference only ever slows a window down. So a phase reports its
// best window, the least-disturbed speed of the code itself, the way
// Python's timeit reports its fastest repeat. In four cow-snapshot runs
// the best windows read 2,463 to 2,675 ops/s while the median windows
// ranged from 1,880 to 2,590.
const phaseWindows = 20

// runPhase runs whole rounds, at least one, until d has passed on the
// host clock.
func runPhase(inst instance, d time.Duration, tr *tracer) (*phase, error) {
	rec := newRecorder()
	c0 := inst.counters()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	p := &phase{rec: rec}
	start := time.Now()
	// A window is made of whole rounds, so each holds the workload's
	// exact op mix; a short trailing window is dropped.
	window := func(from time.Time, lo, hi int) {
		rate := float64(hi-lo) / time.Since(from).Seconds()
		p50 := rec.p50(lo, hi)
		p.rate = max(p.rate, rate)
		if p.p50 == 0 || p50 < p.p50 {
			p.p50 = p50
		}
	}
	wStart, wOps := start, 0
	for {
		if err := inst.round(rec, tr); err != nil {
			return nil, err
		}
		now := time.Now()
		if now.Sub(wStart) >= d/phaseWindows {
			ops := rec.ops()
			window(wStart, wOps, ops)
			wStart, wOps = now, ops
		}
		if now.Sub(start) >= d {
			break
		}
	}
	if p.rate == 0 { // one round outlasted the whole phase
		window(start, 0, rec.ops())
	}
	runtime.ReadMemStats(&ms)
	p.counts = inst.counters().sub(c0)
	p.allocBytes = ms.TotalAlloc - alloc0
	return p, nil
}

// setUp boots the workload and runs its warm-up. Warm-up ops must all
// succeed: a machine that cannot warm up cleanly is a broken benchmark.
func setUp(w workload, seed uint64) (instance, error) {
	inst, err := w.build(seed)
	if err != nil {
		return nil, fmt.Errorf("%s: boot: %w", w.name, err)
	}
	rec := newRecorder()
	for rec.ops() < w.warmup {
		if err := inst.round(rec, nil); err != nil {
			return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
		}
	}
	if rec.failed > 0 {
		return nil, fmt.Errorf("%s: warm-up: %d ops failed: %v", w.name, rec.failed, rec.problems)
	}
	return inst, nil
}

// setUps is how many times a run sets its workload up; setup_s is the
// median, so a slow set-up (the process's first, on a cold heap) does
// not move it.
const setUps = 5

// result is one run of one workload.
type result struct {
	workload string
	seed     uint64
	ops      int
	failed   int
	problems []string
	// metrics holds every metric the run measured: end-to-end ones
	// and counts always; spans, probes and trace_overhead (untraced
	// over traced host_ops_per_s, minus one) in a traced run.
	metrics map[string]float64
}

func (r *result) correct() bool { return r.failed == 0 }

// runWorkload performs one run: set-up (several times), the timed
// phase, and for a traced run a traced phase and the ladder probes.
// A non-empty traceDir receives the traced phase's raw spans.
func runWorkload(w workload, seed uint64, d time.Duration, traced bool, traceDir string) (*result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(min(w.hostCPUs, runtime.NumCPU())))
	var inst instance
	setup := make([]float64, setUps)
	for i := range setup {
		inst = nil
		runtime.GC() // the previous set-up's machines are garbage; collect them off the clock
		t0 := time.Now()
		var err error
		if inst, err = setUp(w, seed); err != nil {
			return nil, err
		}
		setup[i] = time.Since(t0).Seconds()
	}

	res := &result{workload: w.name, seed: seed, metrics: map[string]float64{"setup_s": median(setup)}}
	untraced := d
	if traced {
		// A traced run splits its time: the untraced half gives the
		// counts and the overhead baseline, the traced half the spans.
		untraced = d / 2
	}
	p, err := runPhase(inst, untraced, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res.ops = p.rec.ops()
	for i, n := range counterNames {
		res.metrics[n] = float64(p.counts[i]) / float64(max(res.ops, 1))
	}
	res.metrics[counterNames[cLostRequests]] = float64(p.rec.lost) / float64(max(res.ops, 1))
	endToEnd(res.metrics, p)
	res.metrics["failed_ratio"] = float64(p.rec.lost+uint64(p.rec.failed)) / float64(max(p.rec.attempted, 1))
	res.failed, res.problems = p.rec.failed, p.rec.problems
	for _, msg := range inst.checkEnd(p.rec) {
		res.failed++
		res.problems = append(res.problems, msg)
	}
	untracedRate := p.rate

	// host_heap_mib: the live heap with every machine still reachable.
	// The phase's per-op samples, the benchmark's memory rather than
	// the simulator's, are dead by now, so these collections free them;
	// the second also empties the sync.Pools the first only moved to
	// their victim caches.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.metrics["host_heap_mib"] = float64(ms.HeapAlloc) / (1 << 20)

	if traced {
		tr := newTracer(rawTraceOps)
		tp, err := runPhase(inst, d-untraced, tr)
		if err != nil {
			return nil, fmt.Errorf("%s: traced: %w", w.name, err)
		}
		res.metrics["trace_overhead"] = untracedRate/tp.rate - 1
		res.failed += tp.rec.failed
		res.problems = append(res.problems, tp.rec.problems...)
		for k, v := range tr.spanMetrics() {
			res.metrics[k] = v
		}
		if traceDir != "" {
			if err := tr.writeChrome(filepath.Join(traceDir, w.name+".trace.json")); err != nil {
				return nil, fmt.Errorf("%s: write trace: %w", w.name, err)
			}
		}
		// The probes come last: they leave the machines in a state no
		// op would.
		sys, err := inst.probeSystem()
		if err != nil {
			return nil, fmt.Errorf("%s: probe machine: %w", w.name, err)
		}
		if err := runProbes(sys, res.metrics); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	runtime.KeepAlive(inst)
	return res, nil
}

// rawTraceOps is how many ops of a traced phase keep their raw spans
// for the Chrome trace file.
const rawTraceOps = 1000

// endToEnd fills the host- and virtual-clock end-to-end metrics of an
// untraced phase (all but setup_s and host_heap_mib).
func endToEnd(m map[string]float64, p *phase) {
	r := p.rec
	ops := float64(max(len(r.host), 1))
	m["host_ops_per_s"] = p.rate
	m["host_op_p50_us"] = float64(p.p50) / 1e3
	m["host_alloc_kib_per_op"] = float64(p.allocBytes) / 1024 / ops
	var virt []int64
	var sum int64
	for _, vs := range r.virtByClass {
		virt = append(virt, vs...)
		for _, v := range vs {
			sum += v
		}
	}
	m["virt_op_p50_us"] = float64(nearestRank(virt, 50)) / 1e3
	m["virt_op_p99_us"] = float64(nearestRank(virt, 99)) / 1e3
	if sum > 0 {
		m["virt_req_per_vs"] = float64(r.requests) * 1e9 / float64(sum)
	}
	m["virt_peak_rss_mib"] = float64(r.peakPages*mem.PageSize) / (1 << 20)
}
