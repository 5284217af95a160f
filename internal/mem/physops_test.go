package mem

import (
	"bytes"
	"errors"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cost"
	"repro/internal/errno"
)

// The frame-store property test drives a Physical, and the machines
// CloneHostInto stamps from it, through random Alloc, AllocHuge,
// IncRef(s), DecRef(s), Write, Read, Adopt, CopyFrame, ZeroFrame and
// CloneHostInto ops. After every op each machine is checked against a
// model of its frames: reference counts, contents, Materialised, which
// frames hold host-shared bytes, and the LIFO reuse order of freed
// frames (every Alloc must return the id the model predicts). The data
// slots must hold exactly the live materialised frames, one slot each.
// The file Adopt takes its windows from must never change. Ops go on
// on every machine, a clone's source included — it frees, rewrites
// and reallocates frames whose bytes its clones still read, and whose
// owned buffers pagePool hands to the next write or copy — and every
// machine must keep reading its own bytes. The same interpreter backs
// FuzzPhysOps, so a crashing byte string found by
// `go test -fuzz=FuzzPhysOps` replays in TestPhysOps verbatim.

const (
	opsRAM      = 3 << 20 // 768 pages: one huge frame beside 256 base frames
	maxMachines = 3
	// The model file: 16 pages whose first two are zero, so a window
	// may be empty, all zero, partly zero or short of a huge frame.
	fileSize   = 16 * PageSize
	zeroPrefix = 2 * PageSize
)

// modelFrame is what one live frame must read as.
type modelFrame struct {
	refs   int32
	data   []byte // logical contents, always a frame long
	mat    bool   // Materialised
	shared bool   // its bytes are host-shared (adopted or cloned)
}

// opsMachine is one Physical and the model of its frames.
type opsMachine struct {
	p      *Physical
	frames map[FrameID]*modelFrame
	free   []FrameID // freed base frames; Alloc reuses the last
	hfree  []FrameID // freed huge frames; AllocHuge reuses the last
	bump   uint64    // base ids handed out from the watermark
	nhuge  int       // huge ids handed out from the watermark
}

func (m *opsMachine) ids() []FrameID { return slices.Sorted(maps.Keys(m.frames)) }

func (m *opsMachine) allocated() uint64 {
	var n uint64
	for f := range m.frames {
		n += f.Pages()
	}
	return n
}

// nextID is the id the machine must hand out for a frame of the given
// kind, or ENOMEM.
func (m *opsMachine) nextID(huge bool) (FrameID, error) {
	pages := uint64(1)
	if huge {
		pages = FramesPerHuge
	}
	if m.allocated()+pages > m.p.TotalPages() {
		return NoFrame, errno.ENOMEM
	}
	switch {
	case huge && len(m.hfree) > 0:
		return m.hfree[len(m.hfree)-1], nil
	case huge:
		return FrameID(m.nhuge) | hugeBit, nil
	case len(m.free) > 0:
		return m.free[len(m.free)-1], nil
	}
	return FrameID(m.bump), nil
}

// took records that the machine handed out f.
func (m *opsMachine) took(f FrameID) {
	switch {
	case f.IsHuge() && len(m.hfree) > 0:
		m.hfree = m.hfree[:len(m.hfree)-1]
	case f.IsHuge():
		m.nhuge++
	case len(m.free) > 0:
		m.free = m.free[:len(m.free)-1]
	default:
		m.bump++
	}
	m.frames[f] = &modelFrame{refs: 1, data: make([]byte, f.Size())}
}

// decRef drops one model reference, freeing the frame at zero.
func (m *opsMachine) decRef(f FrameID) {
	mf := m.frames[f]
	if mf.refs--; mf.refs > 0 {
		return
	}
	delete(m.frames, f)
	if f.IsHuge() {
		m.hfree = append(m.hfree, f)
	} else {
		m.free = append(m.free, f)
	}
}

// clone is the model of a CloneHost of m: the same frames and free
// lists, every materialised frame's bytes shared.
func (m *opsMachine) clone(p *Physical) *opsMachine {
	c := &opsMachine{
		p:      p,
		frames: make(map[FrameID]*modelFrame, len(m.frames)),
		free:   slices.Clone(m.free),
		hfree:  slices.Clone(m.hfree),
		bump:   m.bump,
		nhuge:  m.nhuge,
	}
	for f, mf := range m.frames {
		c.frames[f] = &modelFrame{refs: mf.refs, data: slices.Clone(mf.data), mat: mf.mat, shared: mf.mat}
	}
	return c
}

type physOps struct {
	t        testing.TB
	file     []byte // what Adopt windows alias
	pristine []byte // the file as written; it must never change
	machines []*opsMachine
	cur      int         // the machine ops apply to
	dead     []*Physical // retired machines, CloneHostInto's scratch
	buf      []byte      // read buffer for checks
	steps    int         // ops run, for failure messages
	last     string      // the last op, for failure messages
}

func newPhysOps(t testing.TB) *physOps {
	file := make([]byte, fileSize)
	for i := zeroPrefix; i < len(file); i++ {
		file[i] = byte(i*7 + 3)
	}
	h := &physOps{t: t, file: file, pristine: slices.Clone(file), buf: make([]byte, HugeSize)}
	p := NewPhysical(cost.NewMeter(cost.DefaultModel()), opsRAM, CommitAlways)
	h.machines = []*opsMachine{{p: p, frames: map[FrameID]*modelFrame{}}}
	return h
}

func (h *physOps) fatalf(format string, args ...any) {
	h.t.Helper()
	h.t.Fatalf("step %d (%s): "+format, append([]any{h.steps, h.last}, args...)...)
}

// pick returns the live frame idx selects, or NoFrame when none is.
func pick(ids []FrameID, idx uint16) FrameID {
	if len(ids) == 0 {
		return NoFrame
	}
	return ids[int(idx)%len(ids)]
}

// step runs one op on the current machine and updates its model.
func (h *physOps) step(op, b1 byte, idx uint16) {
	m := h.machines[h.cur]
	p := m.p
	ids := m.ids()
	f := pick(ids, idx)
	// Sixteen ops, weighted so that references are dropped about as
	// often as they are taken: the live set stays small and the free
	// lists see reuse.
	op %= 16
	if f == NoFrame && op < 14 {
		op = 0 // nothing live: allocate instead
	}
	switch op {
	case 0, 1: // Alloc, or AllocHuge one time in four, after a GrowFrames one time in eight
		huge := op == 1 && b1%4 == 0
		if b1&0xe0 == 0xe0 {
			p.GrowFrames(uint64(idx % 64))
		}
		h.last = "Alloc"
		alloc := p.Alloc
		if huge {
			h.last = "AllocHuge"
			alloc = p.AllocHuge
		}
		want, wantErr := m.nextID(huge)
		got, err := alloc()
		if !errors.Is(err, wantErr) || got != want {
			h.fatalf("got %v, %v; want %v, %v", got, err, want, wantErr)
		}
		if err == nil {
			m.took(got)
		}
	case 2:
		h.last = "IncRef"
		p.IncRef(f)
		m.frames[f].refs++
	case 3:
		h.last = "IncRefs"
		fs := make([]FrameID, 1+b1%4)
		for i := range fs {
			fs[i] = pick(ids, idx+uint16(i)*7)
			m.frames[fs[i]].refs++
		}
		p.IncRefs(fs)
	case 4, 5:
		h.last = "DecRef"
		if freed := p.DecRef(f); freed != (m.frames[f].refs == 1) {
			h.fatalf("DecRef(%v) freed %v at model refs %d", f, freed, m.frames[f].refs)
		}
		m.decRef(f)
	case 6:
		// A batch never drops a frame below zero: each pick is made
		// among the frames the batch has not yet freed.
		h.last = "DecRefs"
		left := map[FrameID]int32{}
		for _, id := range ids {
			left[id] = m.frames[id].refs
		}
		var fs []FrameID
		for i := 0; i < 1+int(b1%8); i++ {
			live := slices.Sorted(maps.Keys(left))
			if len(live) == 0 {
				break
			}
			g := pick(live, idx+uint16(i)*5)
			if left[g]--; left[g] == 0 {
				delete(left, g)
			}
			fs = append(fs, g)
		}
		p.DecRefs(fs)
		for _, g := range fs {
			m.decRef(g)
		}
	case 7, 8:
		h.last = "Write"
		off, n := span(f.Size(), idx, b1&0x7f)
		data := make([]byte, n)
		if b1&0x80 != 0 {
			for i := range data {
				data[i] = byte(i*131 + int(idx))
			}
			data[0] |= 1
		}
		p.Write(f, off, data)
		mf := m.frames[f]
		copy(mf.data[off:], data)
		if mf.mat || !allZero(data) {
			mf.mat, mf.shared = true, false
		}
	case 9:
		h.last = "Read"
		off, n := span(f.Size(), idx, b1)
		got := make([]byte, n)
		for i := range got {
			got[i] = 0xAA // Read must overwrite every byte
		}
		p.Read(f, off, got)
		if !bytes.Equal(got, m.frames[f].data[off:off+n]) {
			h.fatalf("Read(%v, %d, %d) differs from the model", f, off, n)
		}
	case 10, 11:
		h.last = "Adopt"
		woff := int(idx) * 97 % len(h.file)
		wlen := min(f.Size(), len(h.file)-woff) * int(b1) / 255
		w := h.file[woff : woff+wlen : woff+wlen]
		p.Adopt(f, w)
		mf := m.frames[f]
		clear(mf.data)
		copy(mf.data, w)
		mf.mat = !allZero(w)
		mf.shared = mf.mat
	case 12:
		h.last = "CopyFrame"
		want, wantErr := m.nextID(f.IsHuge())
		got, err := p.CopyFrame(f)
		if !errors.Is(err, wantErr) || got != want {
			h.fatalf("CopyFrame(%v) = %v, %v; want %v, %v", f, got, err, want, wantErr)
		}
		if err == nil {
			src := m.frames[f]
			m.took(got)
			copy(m.frames[got].data, src.data)
			m.frames[got].mat = src.mat
		}
	case 13:
		h.last = "ZeroFrame"
		p.ZeroFrame(f)
		mf := m.frames[f]
		clear(mf.data)
		mf.mat, mf.shared = false, false
	case 14:
		h.clone(b1&2 != 0)
	case 15:
		h.last = "switch"
		h.cur = int(idx) % len(h.machines)
	}
}

// span picks an in-bounds [off, off+n) of a frame of the given size.
func span(size int, idx uint16, b byte) (off, n int) {
	off = int(idx) * 61 % size
	return off, min(size-off, 1+int(b)*53)
}

// clone stamps the current machine with CloneHostInto, recycling a
// retired machine's allocations once there are any. Both sides stay
// writable; keep selects which one ops continue on.
func (h *physOps) clone(keep bool) {
	h.last = "CloneHostInto"
	if len(h.machines) == maxMachines {
		// Retire the oldest machine that is not current.
		i := 0
		if h.cur == 0 {
			i = 1
		}
		h.dead = append(h.dead, h.machines[i].p)
		h.machines = slices.Delete(h.machines, i, i+1)
		if h.cur > i {
			h.cur--
		}
	}
	var scratch *Physical
	if n := len(h.dead); n > 0 {
		scratch = h.dead[n-1]
		h.dead = h.dead[:n-1]
		h.last = "CloneHostInto(recycled)"
	}
	src := h.machines[h.cur]
	np := src.p.CloneHostInto(cost.NewMeter(cost.DefaultModel()), scratch)
	if scratch != nil && np != scratch {
		h.fatalf("CloneHostInto did not reuse its scratch")
	}
	c := src.clone(np)
	for _, mf := range src.frames {
		mf.shared = mf.mat // the source is marked too
	}
	h.machines = append(h.machines, c)
	if !keep {
		h.cur = len(h.machines) - 1
	}
}

// check holds every machine to its model, and the file to its bytes.
func (h *physOps) check() {
	h.t.Helper()
	if !bytes.Equal(h.file, h.pristine) {
		h.fatalf("a frame wrote into the file Adopt took windows from")
	}
	for i, m := range h.machines {
		h.checkMachine(i, m)
	}
}

func (h *physOps) checkMachine(i int, m *opsMachine) {
	h.t.Helper()
	p := m.p
	if got, want := p.AllocatedPages(), m.allocated(); got != want {
		h.fatalf("machine %d: AllocatedPages %d, model %d", i, got, want)
	}
	used := map[uint32]bool{}
	shared := 0
	for _, f := range m.ids() {
		mf := m.frames[f]
		if got := p.Refs(f); got != mf.refs {
			h.fatalf("machine %d frame %v: Refs %d, model %d", i, f, got, mf.refs)
		}
		if got := p.Materialised(f); got != mf.mat {
			h.fatalf("machine %d frame %v: Materialised %v, model %v", i, f, got, mf.mat)
		}
		buf := h.buf[:f.Size()]
		p.Read(f, 0, buf)
		if !bytes.Equal(buf, mf.data) {
			h.fatalf("machine %d frame %v: contents differ from the model", i, f)
		}
		s := p.slot(f).next
		if (s != 0) != mf.mat || used[s] && s != 0 {
			h.fatalf("machine %d frame %v: slot %d, materialised %v, already used %v", i, f, s, mf.mat, used[s])
		}
		if s != 0 {
			used[s] = true
			fd := p.data[s]
			if fd.bytes == nil || len(fd.bytes) > f.Size() || fd.shared != mf.shared {
				h.fatalf("machine %d frame %v: slot %d holds %d bytes, shared %v; model shared %v",
					i, f, s, len(fd.bytes), fd.shared, mf.shared)
			}
			if !fd.shared && len(fd.bytes) != f.Size() {
				h.fatalf("machine %d frame %v: owned bytes are %d long", i, f, len(fd.bytes))
			}
		}
		if mf.shared {
			shared++
		}
	}
	// Live slots are exactly the live materialised frames: every other
	// slot is slot 0 or on the free stack, and empty.
	if !empty(p.data[0]) {
		h.fatalf("machine %d: slot 0 is not empty", i)
	}
	live := 0
	for _, fd := range p.data {
		if fd.bytes != nil {
			live++
		}
	}
	if live != len(used) {
		h.fatalf("machine %d: %d slots hold bytes, %d live frames are materialised", i, live, len(used))
	}
	for _, s := range p.freeSlots {
		if s == 0 || used[s] || !empty(p.data[s]) {
			h.fatalf("machine %d: free slot %d is 0, in use or not empty", i, s)
		}
		used[s] = true
	}
	if len(p.data) != 1+len(used) {
		h.fatalf("machine %d: %d slots, %d in use or free", i, len(p.data), len(used))
	}
	if got := p.SharedFrames(); got != shared {
		h.fatalf("machine %d: SharedFrames %d, model %d", i, got, shared)
	}
}

// empty reports whether a data slot is the zero value.
func empty(fd frameData) bool { return fd.bytes == nil && !fd.shared }

// runPhysOps interprets ops 4 bytes at a time, checking after each,
// then frees every frame of every machine and checks that nothing is
// left: no page allocated and no slot in use.
func runPhysOps(t testing.TB, ops []byte) {
	h := newPhysOps(t)
	for i := 0; i+4 <= len(ops); i += 4 {
		h.steps++
		h.step(ops[i], ops[i+1], uint16(ops[i+2])|uint16(ops[i+3])<<8)
		h.check()
	}
	h.last = "final teardown"
	for i, m := range h.machines {
		for _, f := range m.ids() {
			for range m.frames[f].refs {
				m.p.DecRef(f)
			}
		}
		if got := m.p.AllocatedPages(); got != 0 {
			h.fatalf("machine %d: %d pages still allocated", i, got)
		}
		if got := len(m.p.data) - 1 - len(m.p.freeSlots); got != 0 {
			h.fatalf("machine %d: %d slots still in use", i, got)
		}
	}
	if !bytes.Equal(h.file, h.pristine) {
		h.fatalf("a frame wrote into the file Adopt took windows from")
	}
}

// TestPhysOps runs the interpreter over seeded random op streams —
// deterministic, so failures reproduce.
func TestPhysOps(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 2400)
		rng.Read(ops)
		t.Run(string(rune('A'+seed)), func(t *testing.T) {
			t.Parallel()
			runPhysOps(t, ops)
		})
	}
}

// FuzzPhysOps lets the fuzzer hunt for byte strings the random seeds
// miss; the corpus replays as ordinary tests.
func FuzzPhysOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0})
	// Adopt a short window, write into it, clone, and write both sides.
	f.Add([]byte{0, 0, 0, 0, 10, 40, 0, 1, 7, 0x81, 3, 0, 14, 1, 0, 0, 7, 0x85, 9, 0, 15, 0, 0, 0, 7, 0x90, 1, 0})
	rng := rand.New(rand.NewSource(99))
	seed := make([]byte, 512)
	rng.Read(seed)
	f.Add(seed)
	// Fill a frame and free it, so its buffer goes to pagePool dirty,
	// then take a buffer from the pool three ways, each after another
	// fill and free: a 54-byte Write to a lazy frame, CopyFrame of an
	// adopted 321-byte window, and a Write into that window, which
	// copies it out. Each frame must read zero past its data.
	f.Add([]byte{
		0, 0, 0, 0, 7, 0xff, 0, 0, 4, 0, 0, 0, // Alloc 0, fill it, free it
		0, 0, 0, 0, 7, 0x81, 0, 0, // Alloc 0, Write 54 bytes
		7, 0xff, 0, 0, 4, 0, 0, 0, // fill 0 again, free it
		0, 0, 0, 0, 10, 20, 100, 0, 12, 0, 0, 0, // Alloc 0, Adopt 321 bytes, CopyFrame to 1
		7, 0xff, 1, 0, 4, 0, 1, 0, // fill 1 from byte 61, free it
		7, 0x81, 0, 0, // Write 54 bytes into 0's window
	})
	// Clone, then free, rewrite and reallocate on the source while the
	// clone still reads the bytes it aliases.
	f.Add([]byte{
		0, 0, 0, 0, 7, 0xff, 0, 0, 14, 2, 0, 0, // Alloc 0, fill it, clone, stay on the source
		4, 0, 0, 0, 0, 0, 0, 0, 7, 0xff, 1, 0, // free 0, Alloc 0, fill it anew
		15, 0, 1, 0, 9, 0xff, 0, 0, // switch to the clone, read
	})
	// One DecRefs batch frees four frames that hold bytes of every
	// kind — clone-shared, huge and owned, owned, adopted — then a
	// write takes a pooled buffer for the reused frame, and the clone
	// reads back the bytes the source freed.
	f.Add([]byte{
		0, 0, 0, 0, 7, 0xff, 0, 0, 14, 2, 0, 0, // Alloc 0, fill it, clone, stay on the source
		0, 0, 0, 0, 7, 0xff, 1, 0, // Alloc 1, fill it
		0, 0, 0, 0, 10, 255, 101, 0, // Alloc 2, Adopt a file page into it
		1, 0, 0, 0, 7, 0xff, 3, 0, // AllocHuge, fill it from byte 183
		6, 3, 0, 0, // DecRefs 0, the huge frame, 1, 2
		0, 0, 0, 0, 7, 0x81, 0, 0, // Alloc 2 again, Write 54 bytes
		15, 0, 1, 0, 9, 0xff, 0, 0, // switch to the clone, read 0
	})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1<<14 {
			ops = ops[:1<<14]
		}
		runPhysOps(t, ops)
	})
}
