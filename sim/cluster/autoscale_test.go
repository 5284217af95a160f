package cluster

import "testing"

// TestAutoscaleTargetBinds holds the autoscaler to targetUtilization
// itself, which no preset reaches: on a pool of three ready machines,
// a projected utilization just above the target boots one machine —
// the target binds, not the surge cap — and one just below it boots
// none. Moving the target to 0.80 or to 0.60 fails one of the rows.
func TestAutoscaleTargetBinds(t *testing.T) {
	const dt = 1_000_000
	for _, c := range []struct {
		util  float64
		boots int
	}{
		{0.75, 1}, // ceil(3 × 0.75 / 0.70) = 4 machines
		{0.68, 0}, // ceil(3 × 0.68 / 0.70) = 3 machines
	} {
		p := &poolState{spec: PoolSpec{Name: "p", CPUs: 2, MinMachines: 1, MaxMachines: 8}}
		e := &engine{dt: dt, pools: []*poolState{p}}
		for i := 0; i < 3; i++ {
			e.allocMachine(p, 0) // ready from step 0
		}
		boots, err := e.autoscale(1, []uint64{uint64(c.util * 3 * dt)})
		if err != nil {
			t.Fatal(err)
		}
		if len(boots) != c.boots {
			t.Errorf("3 ready machines at utilization %.2f: %d boot(s), want %d (target %.2f, surge cap %d)",
				c.util, len(boots), c.boots, targetUtilization, maxSurge)
		}
	}
}
