package experiments

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/ulib"
)

// Ablations runs the design-choice ablations. Its table is Ablation 1,
// copy-on-write vs the eager fork of the paper's §2 history, from
// 4 MiB up to maxBytes. Its tail is Ablation 5, the §8 mitigation that
// refuses fork in multithreaded processes: the threads demo without
// and with it.
func Ablations(maxBytes uint64) (*Sweep, error) {
	s := &Sweep{head: "Ablation 1: copy-on-write vs 1970s eager fork\n"}
	for _, size := range sizeSweep(4*MiB, maxBytes) {
		s.rows = append(s.rows, creations(size, false, core.MethodForkExec, core.MethodForkEagerExec))
	}
	s.cols = []column{
		parentSize,
		creationCol("COW fork+exec", 0, us),
		creationCol("eager fork+exec", 1, us),
		{"eager/COW", func(r []cell) string { return times(r[1].create, r[0].create) }},
	}
	if _, err := s.run(); err != nil {
		return nil, err
	}
	deadlock, err := mitigation(false)
	if err != nil {
		return nil, err
	}
	refused, err := mitigation(true)
	if err != nil {
		return nil, err
	}
	s.tail = "\nAblation 5 (§8 mitigation): fork in a multithreaded program\n" +
		fmt.Sprintf("  default kernel:                 %s\n", deadlock) +
		fmt.Sprintf("  with DenyMultithreadedFork:     %s\n", refused)
	return s, nil
}

// mitigation runs the threads demo, which forks while another thread
// holds a lock, on a kernel that refuses fork in multithreaded
// processes when deny is set, and reports how it ended.
func mitigation(deny bool) (string, error) {
	k := newKernel(kernel.Options{DenyMultithreadedFork: deny})
	if err := ulib.InstallAll(k); err != nil {
		return "", err
	}
	if _, err := k.BootInit("/bin/threads_deadlock", []string{"threads_deadlock"}); err != nil {
		return "", err
	}
	err := k.Run(kernel.RunLimits{MaxInstructions: 10_000_000})
	var dl *kernel.DeadlockError
	switch {
	case errors.As(err, &dl):
		return "deadlock", nil
	case err != nil:
		return "", err
	default:
		return "completed (fork refused with EAGAIN)", nil
	}
}
