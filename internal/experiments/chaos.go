package experiments

import (
	"fmt"

	"repro/sim"
	"repro/sim/fault"
	"repro/sim/load"
)

// ---------------------------------------------------------------
// E11 — the overcommit argument made measurable. §4.6 of the paper
// argues that fork turns memory exhaustion into a latent, badly-timed
// failure: every fork must reserve (or, overcommitted, pretend to
// reserve) the whole parent, so under pressure a big server's
// creations are exactly the requests that fail. The experiment runs
// the prefork server under identical deterministic memory-pressure
// fault waves (plus a worker kill wave hitting every strategy alike)
// and compares survival: fork's Θ(heap) commit reservations are mowed
// down by the pressure windows while spawn's few-page requests squeeze
// through, so the fork server drops a large slice of its traffic that
// the spawn server serves.
// ---------------------------------------------------------------

// ChaosClaimConfig parameterizes E11; zero fields get defaults.
type ChaosClaimConfig struct {
	HeapBytes uint64 // server heap (default 64 MiB)
	Requests  int    // requests per run (default 64)
	CPUs      int    // simulated CPUs (default 1)
	Seed      uint64 // fault-wave seed (default 1)
}

// ChaosClaimPoint is one strategy's clean-vs-chaos comparison.
type ChaosClaimPoint struct {
	Strategy string
	Clean    *load.Metrics // no faults installed
	Chaos    *load.Metrics // same config under fault.Chaos(seed, 0)
}

// Survival reports the fraction of chaos-run requests actually served.
func (p ChaosClaimPoint) Survival() float64 {
	total := p.Chaos.Requests + p.Chaos.FailedRequests
	if total == 0 {
		return 0
	}
	return float64(p.Chaos.Requests) / float64(total)
}

// ChaosClaimResult is E11.
type ChaosClaimResult struct {
	HeapBytes uint64
	Requests  int
	CPUs      int
	Seed      uint64
	Points    []ChaosClaimPoint
}

// ChaosClaim runs E11. Deterministic: the fault schedule is a pure
// function of (seed, virtual time, op counter), so the table is a pure
// function of the config.
func ChaosClaim(cfg ChaosClaimConfig) (*ChaosClaimResult, error) {
	if cfg.HeapBytes == 0 {
		cfg.HeapBytes = 64 * MiB
	}
	if cfg.Requests == 0 {
		cfg.Requests = 64
	}
	if cfg.CPUs == 0 {
		cfg.CPUs = 1
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	res := &ChaosClaimResult{
		HeapBytes: cfg.HeapBytes, Requests: cfg.Requests, CPUs: cfg.CPUs, Seed: cfg.Seed,
	}
	for _, via := range []sim.Strategy{sim.ForkExec, sim.Spawn} {
		base := load.Config{
			Scenario:  load.Prefork,
			Via:       via,
			CPUs:      cfg.CPUs,
			Requests:  cfg.Requests,
			HeapBytes: cfg.HeapBytes,
		}
		clean, err := load.Run(base)
		if err != nil {
			return nil, fmt.Errorf("chaosclaim %v clean: %w", via, err)
		}
		chaosCfg := base
		chaosCfg.Faults = fault.Chaos(cfg.Seed, 0)
		chaos, err := load.Run(chaosCfg)
		if err != nil {
			return nil, fmt.Errorf("chaosclaim %v chaos: %w", via, err)
		}
		res.Points = append(res.Points, ChaosClaimPoint{
			Strategy: via.String(), Clean: clean, Chaos: chaos,
		})
	}
	return res, nil
}

// Render formats E11 as a table: throughput and survival under
// identical fault waves, fork vs spawn.
func (r *ChaosClaimResult) Render() string {
	rows := [][]string{{
		"strategy",
		"clean req/s", "chaos req/s",
		"served", "failed", "survival", "oom kills",
	}}
	for _, p := range r.Points {
		rows = append(rows, []string{
			p.Strategy,
			fmt.Sprintf("%.0f", p.Clean.RequestsPerVSec),
			fmt.Sprintf("%.0f", p.Chaos.RequestsPerVSec),
			fmt.Sprint(p.Chaos.Requests),
			fmt.Sprint(p.Chaos.FailedRequests),
			fmt.Sprintf("%.0f%%", 100*p.Survival()),
			fmt.Sprint(p.Chaos.OOMKills),
		})
	}
	head := fmt.Sprintf(
		"E11 — survival under memory-pressure fault waves (prefork, heap %s, %d requests, seed %d):\n"+
			"identical deterministic ENOMEM waves and worker kill waves hit every strategy; fork's\n"+
			"Θ(heap) commit reservations are what the pressure windows refuse (§4.6's overcommit\n"+
			"argument), so the fork server drops traffic the spawn server serves.\n\n",
		load.HumanBytes(r.HeapBytes), r.Requests, r.Seed)
	return head + renderTable(rows)
}
