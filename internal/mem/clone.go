package mem

import "repro/internal/cost"

// CloneHost duplicates the physical memory's entire logical state —
// frame table, free lists, allocation watermark, commit books — into a
// new Physical charging against meter, without copying any frame
// contents: materialised frames alias the source's byte arrays, marked
// shared so the first in-place write on either side copies the bytes
// out (see Write). The clone is logically an exact deep copy (reads,
// refcounts, commit charge, and every metered cost behave identically),
// but the host pays one pointer-free memmove of the frame table plus
// one copy of the data slots — a slice header per materialised frame,
// not Θ(resident bytes), and most resident pages are lazy zeroes with
// no slot at all. Slot numbers carry over unchanged, so the frame
// table's slot indices stay valid in the clone.
//
// Every source slot the clone aliases is marked shared as well: the
// source is not trusted to stay frozen. A source that went on writing
// would otherwise scribble on bytes the clone reads, and one that freed
// or zeroed the frame would put them in pagePool for another frame to
// overwrite. A slot already marked is only read, and a template's are
// all marked by the snapshot that made it, so machines stamped
// concurrently from one template never write it and stay race-free
// without locks.
//
// The fault injector is deliberately not carried over: injectors are
// bound to a meter and recorder, and the cloning kernel installs the
// clone's own (see kernel.Kernel.Clone).
func (p *Physical) CloneHost(meter *cost.Meter) *Physical {
	return p.CloneHostInto(meter, nil)
}

// CloneHostInto is CloneHost recycling a retired clone's allocations:
// scratch's frame table, host-frame books, data slots and free-slot
// stack are reused in place instead of reallocated, so a fleet
// stamping machines in a loop stops churning the dominant per-clone
// allocation (the frame table is one entry per page of RAM). scratch
// must be dead — no other reference may read it again — and must not
// be p itself. A nil scratch allocates fresh, exactly like CloneHost.
// The returned Physical (scratch, when given) is logically identical
// to a fresh clone: every field is rewritten, unset ones zeroed.
func (p *Physical) CloneHostInto(meter *cost.Meter, scratch *Physical) *Physical {
	np := scratch
	if np == nil {
		np = &Physical{}
	}
	frames := append(np.frames[:0], p.frames...)
	hframes := append(np.hframes[:0], p.hframes...)
	hfree := append(np.hfree[:0], p.hfree...)
	data := append(np.data[:0], p.data...)
	clear(data[len(data):cap(data)]) // drop a retired clone's stale bytes
	freeSlots := append(np.freeSlots[:0], p.freeSlots...)
	*np = Physical{
		meter:          meter,
		frames:         frames,
		nextFree:       p.nextFree,
		freeHead:       p.freeHead,
		data:           data,
		freeSlots:      freeSlots,
		hframes:        hframes,
		hfree:          hfree,
		totalPages:     p.totalPages,
		allocatedPages: p.allocatedPages,
		policy:         p.policy,
		committed:      p.committed,
	}
	for i := range data {
		if data[i].bytes != nil {
			data[i].shared = true
			if !p.data[i].shared {
				p.data[i].shared = true
			}
		}
	}
	return np
}

// SharedFrames counts live frames whose byte arrays are still host-COW
// shared with a template, a clone or a file (see Adopt). On a frozen
// template it must never decrease: a drop means some clone's write
// reached the template's frames instead of breaking the sharing (the
// independence tests assert on this).
func (p *Physical) SharedFrames() int {
	n := 0
	for i := range p.data {
		if p.data[i].shared {
			n++
		}
	}
	return n
}
