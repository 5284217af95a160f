package load

import (
	"testing"

	"repro/sim"
)

// BenchmarkStamp pins the tentpole's host-cost claim at the load
// layer: stamping a warmed 64 MiB prefork machine from a frozen
// template must stay O(live structures) — frame table memmove plus
// aliased page-table root — not Θ(heap). Regressions here (say, a
// clone path that starts copying radix nodes or materialising zero
// pages) show up as an order-of-magnitude jump.
func BenchmarkStamp(b *testing.B) {
	cfg := Config{Scenario: Prefork, Via: sim.Spawn, HeapBytes: 64 << 20}
	tpl, err := newTemplate(cfg, cfg.Shape())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tpl.Stamp(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdBootWarm is BenchmarkStamp's baseline: the same warmed
// machine built from scratch. The ratio between the two is the host
// time a template saves per machine.
func BenchmarkColdBootWarm(b *testing.B) {
	cfg := Config{Scenario: Prefork, Via: sim.Spawn, HeapBytes: 64 << 20}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := warm(cfg, cfg.Shape()); err != nil {
			b.Fatal(err)
		}
	}
}
