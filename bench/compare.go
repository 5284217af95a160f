package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// specMetric is one end-to-end metric of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json compare mode reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// verdict judges one (workload, metric) pair. change is the relative
// change of the median, positive when the new runs are worse. The
// metric is unresolved when either side's run-to-run spread is wider
// than its bound — unless every new run beats every base run.
func verdict(m specMetric, base, next []float64) (v string, change float64) {
	mb, mn := median(base), median(next)
	better := func(a, b float64) bool { return a < b }
	worse := mn - mb
	if m.Better == "higher" {
		better = func(a, b float64) bool { return a > b }
		worse = mb - mn
	}
	if mb != 0 {
		change = worse / math.Abs(mb)
	}
	allBetter := true
	for _, n := range next {
		for _, b := range base {
			allBetter = allBetter && better(n, b)
		}
	}
	switch {
	case allBetter && change < -m.Bound:
		return "improved", change
	case max(spread(base), spread(next)) > m.Bound:
		return "unresolved", change
	case change > m.Bound:
		return "worse", change
	case change < -m.Bound:
		return "improved", change
	}
	return "same", change
}

// compareReports prints one row per (workload, end-to-end metric) and
// reports whether any row is worse.
func compareReports(w io.Writer, specPath, basePath, newPath string) (anyWorse bool, err error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	base, err := readReport(basePath)
	if err != nil {
		return false, err
	}
	next, err := readReport(newPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-13s %-22s %-10s %14s %14s %9s %7s\n", "workload", "metric", "verdict", "base median", "new median", "worse by", "bound")
	for _, wl := range spec.Workloads {
		bw, nw := base.Workloads[wl.Name], next.Workloads[wl.Name]
		if bw == nil || nw == nil {
			continue
		}
		for _, m := range spec.EndToEnd {
			bs, ns := bw.Metrics[m.Name], nw.Metrics[m.Name]
			if bs == nil || ns == nil {
				fmt.Fprintf(w, "%-13s %-22s %-10s\n", wl.Name, m.Name, "missing")
				continue
			}
			v, change := verdict(m, bs.Values, ns.Values)
			anyWorse = anyWorse || v == "worse"
			fmt.Fprintf(w, "%-13s %-22s %-10s %14.6g %14.6g %+8.2f%% %6.1f%%\n",
				wl.Name, m.Name, v, median(bs.Values), median(ns.Values), 100*change, 100*m.Bound)
		}
	}
	return anyWorse, nil
}
