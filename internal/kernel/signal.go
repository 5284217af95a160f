package kernel

import (
	"encoding/binary"

	"repro/internal/errno"
	"repro/internal/sig"
)

// sigFrameSize is the signal frame pushed on the user stack before a
// handler runs: 16 registers, pc, and the previous signal mask.
const sigFrameSize = 8 * 18

// SendSignal directs s at process p (kill(2) semantics). Unknown or
// dead targets return ESRCH.
func (k *Kernel) SendSignal(p *Process, s sig.Signal) error {
	if p == nil || p.state != ProcAlive {
		return errno.ESRCH
	}
	if !s.Valid() {
		return errno.EINVAL
	}
	if s == sig.SIGKILL {
		k.killProcess(p, s)
		return nil
	}
	p.pending = p.pending.Add(s)
	// Kick any thread that could take it: blocked threads in
	// interruptible waits are woken so delivery happens promptly.
	// (All this kernel's blocking syscalls are restartable, so an
	// ignored signal simply re-enters the wait; a handler runs
	// first and the wait then restarts — BSD-style SA_RESTART.)
	for _, t := range p.threads {
		if t.state == TBlocked && !t.sigMask.Has(s) {
			k.unblock(t)
			break
		}
		if t.state == TParked && !t.sigMask.Has(s) {
			// Parked threads never run; deliver terminal
			// default actions immediately so synthetic
			// processes can still be killed.
			if p.sigs.Get(s).Kind == sig.ActDefault && sig.DefaultFor(s) == sig.EffectTerminate {
				k.killProcess(p, s)
				return nil
			}
		}
	}
	return nil
}

// checkSignals runs at every instruction boundary. It returns true if
// the step was consumed by signal work (handler frame push or process
// death).
func (k *Kernel) checkSignals(t *Thread) bool {
	avail := (t.pending | t.proc.pending) &^ t.sigMask
	if avail.Empty() {
		return false
	}
	s := avail.First()
	t.pending = t.pending.Del(s)
	t.proc.pending = t.proc.pending.Del(s)

	d := t.proc.sigs.Get(s)
	switch d.Kind {
	case sig.ActIgnore:
		return false // consumed silently; this step proceeds
	case sig.ActDefault:
		switch sig.DefaultFor(s) {
		case sig.EffectIgnore, sig.EffectStop, sig.EffectContinue:
			// Stop/continue are modelled as ignore; job
			// control is out of scope.
			return false
		default:
			k.killProcess(t.proc, s)
			return true
		}
	case sig.ActHandler:
		return k.pushSignalFrame(t, s, d)
	}
	return false
}

// pushSignalFrame saves thread context on the user stack and redirects
// execution to the handler. Frame layout (ascending addresses from the
// new sp): r0..r15, pc, oldmask.
func (k *Kernel) pushSignalFrame(t *Thread, s sig.Signal, d sig.Disposition) bool {
	newSP := t.regs[14] - sigFrameSize
	frame := make([]byte, sigFrameSize)
	for i := 0; i < 16; i++ {
		binary.LittleEndian.PutUint64(frame[8*i:], t.regs[i])
	}
	binary.LittleEndian.PutUint64(frame[8*16:], t.pc)
	binary.LittleEndian.PutUint64(frame[8*17:], uint64(t.sigMask))
	if err := t.proc.space.WriteBytes(newSP, frame); err != nil {
		// Can't build the frame (stack overflow): kill as if
		// uncaught.
		k.SegvKills++
		k.killProcess(t.proc, sig.SIGSEGV)
		return true
	}
	t.regs[14] = newSP
	t.regs[0] = uint64(s)
	t.pc = d.Handler
	t.sigMask = t.sigMask.Union(d.Mask).Add(s)
	return true
}

// sigReturn restores the context saved by pushSignalFrame. The handler
// must leave sp at the frame base (the value it received).
func (k *Kernel) sigReturn(t *Thread) error {
	frame := make([]byte, sigFrameSize)
	if err := t.proc.space.ReadBytes(t.regs[14], frame); err != nil {
		return errno.EFAULT
	}
	for i := 0; i < 16; i++ {
		t.regs[i] = binary.LittleEndian.Uint64(frame[8*i:])
	}
	t.pc = binary.LittleEndian.Uint64(frame[8*16:])
	t.sigMask = sig.Set(binary.LittleEndian.Uint64(frame[8*17:])).Del(sig.SIGKILL).Del(sig.SIGSTOP)
	return nil
}
