package sim

import (
	"fmt"
	"sync"

	"repro/internal/kernel"
)

// Template is a frozen machine image: a warmed System snapshotted into
// an immutable master copy that can be stamped into any number of
// independent clones in ~O(live kernel structures) host time instead
// of Θ(heap). Frame contents, file data, page-table radix nodes,
// fd-table aliasing, and process trees are carried over exactly;
// physical bytes are host-COW-shared (first write on a clone copies
// the affected frame out, never touching the template). A Template is
// safe for concurrent Clone calls from multiple goroutines: clones
// only read the frozen master.
type Template struct {
	k         *kernel.Kernel
	hostPid   kernel.PID
	runBudget uint64

	// Recycle pool: dead kernels of released clones, whose maps and
	// frame-table slices the next Clone rewrites in place instead of
	// reallocating (see Release). Bounded so a burst of releases
	// cannot pin memory.
	mu   sync.Mutex
	free []*kernel.Kernel
}

// maxRecycled bounds a template's recycle pool. Clones in flight at
// once are bounded by the host worker pool, so a small pool captures
// all the reuse a fleet loop can exploit.
const maxRecycled = 32

// Snapshot freezes the machine's current state — mid-workload is fine
// — into a Template. The live System keeps running afterwards: its
// frames are marked copy-on-write so later writes break sharing
// instead of scribbling on the template's bytes. Virtual time,
// meter counters, fault op counters, and the event trace are all part
// of the snapshot, so a clone continues from this exact instant and a
// workload run on a clone is byte-identical (metrics and trace) to the
// same workload run on the original machine. Page-table leaves the
// machine's processes still share since a fork are copied apart first
// (host-only), because a template's leaves are immutable and carry no
// fork count; the template's frame counts are the eager ones.
func (s *System) Snapshot() (*Template, error) {
	if s.host == nil {
		return nil, fmt.Errorf("sim: snapshot of a system with no host process")
	}
	master := s.k.Clone(true)
	if master.Lookup(s.host.Pid) == nil {
		return nil, fmt.Errorf("sim: snapshot lost host pid %d", s.host.Pid)
	}
	return &Template{k: master, hostPid: s.host.Pid, runBudget: s.runBudget}, nil
}

// Clone stamps a fresh, fully independent System from the template.
// The clone has its own cost meter (continuing from the template's
// clocks), fault-injection op counters, trace recorder, process table,
// and physical-memory books; the only thing shared with the template
// is immutable frame and file bytes, un-shared per frame on first
// write. Cloning charges zero simulated cost — a clone is logically
// the warmed machine itself, not a copy of it.
func (t *Template) Clone() (*System, error) {
	t.mu.Lock()
	var scratch *kernel.Kernel
	if n := len(t.free); n > 0 {
		scratch = t.free[n-1]
		t.free[n-1] = nil
		t.free = t.free[:n-1]
	}
	t.mu.Unlock()
	k := t.k.CloneInto(false, scratch)
	host := k.Lookup(t.hostPid)
	if host == nil {
		return nil, fmt.Errorf("sim: template clone lost host pid %d", t.hostPid)
	}
	return &System{k: k, host: host, runBudget: t.runBudget}, nil
}

// Release retires a System stamped from this template and recycles its
// kernel's allocations into the next Clone: the big per-clone
// allocations (frame table, process and futex maps) are rewritten in
// place instead of reallocated, so a fleet loop stamping and retiring
// machines stops churning them. The recycled state is host-side only —
// a Clone that reuses it is byte-identical, books and metrics included,
// to one built fresh (the recycle tests enforce this).
//
// The System must have been stamped from this template, must not be
// the frozen master, and must never be used again: Release nils its
// kernel so a late call fails loudly instead of aliasing whatever
// machine is stamped into the shell next. Releasing is optional — an
// un-released clone is simply garbage-collected.
func (t *Template) Release(s *System) {
	if s == nil || s.k == nil || s.k == t.k {
		return
	}
	k := s.k
	s.k, s.host = nil, nil
	t.mu.Lock()
	if len(t.free) < maxRecycled {
		t.free = append(t.free, k)
	}
	t.mu.Unlock()
}

// Kernel exposes the frozen master kernel (read-only by convention;
// mutating it invalidates the template's immutability guarantee).
func (t *Template) Kernel() *kernel.Kernel { return t.k }

// FindProcess re-adopts a process of a cloned machine by pid, so a
// harness that recorded pids before Snapshot can rebuild its typed
// handles on each clone (pool workers, servers). The handle reports
// zero creation cost: the process was not created on this machine, it
// arrived with it.
func (s *System) FindProcess(pid int) (*Process, error) {
	raw := s.k.Lookup(kernel.PID(pid))
	if raw == nil {
		return nil, fmt.Errorf("sim: no process with pid %d", pid)
	}
	return &Process{sys: s, raw: raw}, nil
}
