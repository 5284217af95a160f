package sim

import (
	"time"

	"repro/internal/kernel"
)

// Checkpoint/restore at the harness level: serialize one process into
// a host-side Image on its source machine and rebuild it on another.
// This is the substrate the live-migration driver (sim/load's Migrate
// scenario) and the fleet rebalancer stand on; see
// internal/kernel/checkpoint.go for the extraction semantics and the
// refusal list — the paper's fork-entangled state (borrowed vfork
// spaces, pipe peers, unreaped children) is exactly what cannot be
// serialized one-sided.

// Image is a serialized process: self-contained host-side state with
// no references into the source machine, so it outlives the source and
// restores into any System whose filesystem carries the same files
// (executable image, open files, cwd).
type Image struct {
	raw *kernel.ProcImage
}

// Raw exposes the substrate image (advanced: its page records and
// descriptor tables). Live migration's later pre-copy rounds are not
// merged into an image; they install into the restored space through
// addrspace.Space.InstallPage.
func (img *Image) Raw() *kernel.ProcImage { return img.raw }

// PageBytes reports the image's page payload — what a migration ships
// over the wire.
func (img *Image) PageBytes() uint64 { return img.raw.PageBytes() }

// PageCount reports captured pages in 4 KiB units.
func (img *Image) PageCount() uint64 { return img.raw.PageBytes() >> 12 }

// CapturedAt reports the source machine's virtual time at capture.
func (img *Image) CapturedAt() time.Duration {
	return time.Duration(img.raw.CapturedAt)
}

// Checkpoint serializes the process into a host-side image: address
// space via the page-table walk, descriptor table, thread states, and
// pending signals. The process keeps running afterwards — checkpoint
// is a priced read. It refuses (with *kernel.CheckpointError) when the
// process is entangled with its machine in ways that cannot be
// serialized one-sided: a borrowed vfork address space, a suspended
// vfork parent, unreaped children, pipe fds, MAP_SHARED regions, or
// files already unlinked.
func (p *Process) Checkpoint() (*Image, error) {
	raw, err := p.sys.k.CheckpointProcess(p.raw, kernel.CheckpointOpts{})
	if err != nil {
		return nil, err
	}
	return &Image{raw: raw}, nil
}

// ProcessOf wraps a substrate process in the sim handle, so harness
// code that built processes through the raw kernel API (synthetic
// parents, fork-family children) can checkpoint and migrate them.
func (s *System) ProcessOf(raw *kernel.Process) *Process {
	return &Process{sys: s, raw: raw}
}

// Restore reconstructs a checkpointed process on s — the receiving
// half of a migration. Every name in the image (cwd, executable
// backing, open files) must resolve in s's filesystem. Pages install
// in one pass in the image's order, which must be the strictly
// ascending address order Checkpoint produced; an image edited out of
// that order (or with two records for one address) fails with EINVAL
// and releases everything the restore had built. The restored process
// is parentless; threads that were runnable or blocked on the source
// come back runnable (blocked syscalls are restartable and re-block on
// this machine's queues), parked threads stay parked.
func (s *System) Restore(img *Image) (*Process, error) {
	raw, err := s.k.RestoreProcess(img.raw)
	if err != nil {
		return nil, err
	}
	return &Process{sys: s, raw: raw}, nil
}
