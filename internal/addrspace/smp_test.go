package addrspace

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/mem"
)

// smpSpace builds a 4-CPU meter and a space with n dirty 4KiB pages.
func smpSpace(t *testing.T, pages uint64) (*Space, *cost.Meter) {
	t.Helper()
	meter := cost.NewMeterSMP(cost.DefaultModel(), 4)
	phys := mem.NewPhysical(meter, 256<<20, mem.CommitHeuristic)
	s := New(phys, meter)
	v, err := s.Map(0, pages*mem.PageSize, Read|Write, MapOpts{Kind: KindAnon, Name: "w"})
	if err != nil {
		t.Fatalf("map: %v", err)
	}
	if err := s.Touch(v.Start, v.Len(), AccessWrite); err != nil {
		t.Fatalf("touch: %v", err)
	}
	return s, meter
}

// TestShootdownPerRemoteCPU checks the §5 cost model: COW breaks,
// unmaps, and protection changes IPI every *remote* CPU on which the
// space is resident, and nothing when the space runs nowhere else.
func TestShootdownPerRemoteCPU(t *testing.T) {
	s, meter := smpSpace(t, 6)
	base := s.VMAs()[0].Start

	// Resident nowhere: no IPIs, ever.
	if err := s.Protect(base, mem.PageSize, Read); err != nil {
		t.Fatalf("protect: %v", err)
	}
	if meter.TLBShootdowns != 0 {
		t.Fatalf("shootdowns with empty residency: %d", meter.TLBShootdowns)
	}

	// Resident on CPUs {0,1,2}; operations initiated from CPU 0
	// must IPI exactly {1,2}.
	s.MarkResident(0)
	s.MarkResident(1)
	s.MarkResident(2)
	if s.ResidentCPUs() != 3 {
		t.Fatalf("ResidentCPUs = %d", s.ResidentCPUs())
	}

	// Protection change (downgrade of one writable page).
	if err := s.Protect(base+mem.PageSize, mem.PageSize, Read); err != nil {
		t.Fatalf("protect: %v", err)
	}
	if meter.TLBShootdowns != 2 {
		t.Fatalf("protect shootdowns = %d, want 2", meter.TLBShootdowns)
	}

	// Unmap of a populated page: one more batched round.
	if err := s.Unmap(base+2*mem.PageSize, mem.PageSize); err != nil {
		t.Fatalf("unmap: %v", err)
	}
	if meter.TLBShootdowns != 4 {
		t.Fatalf("unmap shootdowns = %d, want 4", meter.TLBShootdowns)
	}

	// Fork: the parent-side downgrade is one round.
	child, err := s.CloneCOW()
	if err != nil {
		t.Fatalf("clone: %v", err)
	}
	if meter.TLBShootdowns != 6 {
		t.Fatalf("clone shootdowns = %d, want 6", meter.TLBShootdowns)
	}
	if child.ResidentCPUs() != 0 {
		t.Errorf("fresh child resident on %d CPUs", child.ResidentCPUs())
	}

	// COW break from CPU 2: remotes are {0,1}.
	meter.SetActiveCPU(2)
	if err := s.Fault(base+3*mem.PageSize, AccessWrite); err != nil {
		t.Fatalf("cow break: %v", err)
	}
	if meter.TLBShootdowns != 8 {
		t.Fatalf("cow-break shootdowns = %d, want 8", meter.TLBShootdowns)
	}

	// Clearing residency stops the charges: a COW break on a page
	// the space runs nowhere else costs no IPIs.
	meter.SetActiveCPU(0)
	s.ClearResident(1)
	s.ClearResident(2)
	s.ClearResident(0)
	before := meter.TLBShootdowns
	if err := s.Fault(base+4*mem.PageSize, AccessWrite); err != nil {
		t.Fatalf("cow break: %v", err)
	}
	if meter.TLBShootdowns != before {
		t.Errorf("shootdowns after residency cleared: %d -> %d", before, meter.TLBShootdowns)
	}

	child.Destroy()
	s.Destroy()
}

// TestShootdownCostGrowsWithResidency is the monotonicity property the
// CPU-sweep experiment reports: the same fork costs strictly more
// virtual time for every additional core the parent is running on.
func TestShootdownCostGrowsWithResidency(t *testing.T) {
	var prev cost.Ticks
	for residents := 1; residents <= 4; residents++ {
		s, meter := smpSpace(t, 16)
		for c := 0; c < residents; c++ {
			s.MarkResident(c)
		}
		t0 := meter.Now()
		child, err := s.CloneCOW()
		if err != nil {
			t.Fatalf("clone: %v", err)
		}
		elapsed := meter.Now() - t0
		if residents > 1 && elapsed <= prev {
			t.Errorf("fork with %d resident CPUs cost %v, not above %v", residents, elapsed, prev)
		}
		prev = elapsed
		child.Destroy()
		s.Destroy()
	}
}
