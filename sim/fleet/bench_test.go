package fleet

import (
	"testing"

	"repro/sim"
)

// BenchmarkFleet100k is the host-scale acceptance benchmark: a
// 100k-machine uniform fleet through the streaming aggregation path
// (per-machine metrics dropped as they fold), machine shells recycled
// through the template pool. The reported peakRSS-MiB metric is the
// process high-water mark — the 100k fleet must stay under 1 GiB, an
// order of magnitude past the pre-streaming 4096-machine cap. It is
// the only benchmark in this package so the RSS reading is not
// polluted by other bench loops in the same process.
func BenchmarkFleet100k(b *testing.B) {
	spec := Spec{
		Machines:  100_000,
		Scenario:  Uniform,
		Via:       sim.Spawn,
		CPUs:      1,
		Requests:  1,
		HeapBytes: 4 << 20,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		if got := res.Aggregate.Machines; got != spec.Machines {
			b.Fatalf("aggregated %d machines, want %d", got, spec.Machines)
		}
		if len(res.Machines) != 0 {
			b.Fatalf("kept %d per-machine metrics without KeepPerMachine", len(res.Machines))
		}
		b.ReportMetric(float64(spec.Machines)/b.Elapsed().Seconds()/float64(i+1), "machines/s")
	}
	peak := hostPeakRSS()
	b.ReportMetric(float64(peak)/(1<<20), "peakRSS-MiB")
	if peak >= 1<<30 {
		b.Fatalf("peak RSS %d bytes: the 100k-machine fleet must run under 1 GiB", peak)
	}
}
