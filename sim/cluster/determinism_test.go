package cluster_test

import (
	"bytes"
	"runtime"
	"testing"

	"repro/sim/cluster"
)

// runJSON runs a cluster spec under an explicit GOMAXPROCS and
// returns the marshalled report — the byte string the determinism
// contract is about.
func runJSON(t *testing.T, spec cluster.Spec, gomaxprocs int) []byte {
	t.Helper()
	prev := runtime.GOMAXPROCS(gomaxprocs)
	defer runtime.GOMAXPROCS(prev)
	rep, err := cluster.Run(spec)
	if err != nil {
		t.Fatalf("GOMAXPROCS=%d: %v", gomaxprocs, err)
	}
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestClusterDeterministicAcrossGOMAXPROCS: for every scenario — and
// therefore machine shapes of 1, 2, 4, and 8 CPUs — the full report,
// reconcile trace included, is byte-identical at GOMAXPROCS 1 and 8,
// and across repeat runs.
func TestClusterDeterministicAcrossGOMAXPROCS(t *testing.T) {
	for _, s := range cluster.Scenarios() {
		t.Run(string(s), func(t *testing.T) {
			spec, err := cluster.SpecFor(s, 4<<20)
			if err != nil {
				t.Fatal(err)
			}
			serial := runJSON(t, spec, 1)
			parallel := runJSON(t, spec, 8)
			if !bytes.Equal(serial, parallel) {
				t.Fatalf("report differs between GOMAXPROCS 1 and 8:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
			}
			if again := runJSON(t, spec, 8); !bytes.Equal(parallel, again) {
				t.Fatal("repeat run at GOMAXPROCS=8 differs")
			}
		})
	}
}
