package core

import (
	"repro/internal/cost"
	"repro/internal/kernel"
)

// CreateChild performs one process creation from parent using method,
// returning the fully constructed (but parked, never-run) child and
// the virtual time the creation took. The caller is responsible for
// k.DestroyProcess(child).
//
// For fork-family methods the measurement covers fork *and* exec,
// matching the paper's "time to fork and exec a minimal process";
// exec includes tearing down the forked copy of the parent's address
// space, which — like on Linux — also scales with the parent's size.
// It is spawn, the builder, or Fork then exec; an invalid method fails
// before anything is created.
func CreateChild(k *kernel.Kernel, parent *kernel.Process, method Method, path string, argv []string) (*kernel.Process, cost.Ticks, error) {
	start := k.Now()
	var child *kernel.Process
	var err error
	switch method {
	case MethodSpawn:
		child, err = SpawnParked(k, parent, path, argv, nil, nil)
	case MethodBuilder:
		b := NewBuilder(k, parent, "child")
		b.LoadImage(path, argv)
		child, err = b.Finish()
	default:
		if child, err = Fork(k, parent, method); err == nil {
			if err = k.Exec(child, path, argv); err != nil {
				k.DestroyProcess(child)
			}
		}
	}
	if err != nil {
		return nil, 0, err
	}
	return child, k.Now() - start, nil
}

// MeasureCreation creates and destroys a child, returning only the
// creation latency.
func MeasureCreation(k *kernel.Kernel, parent *kernel.Process, method Method, path string) (cost.Ticks, error) {
	child, elapsed, err := CreateChild(k, parent, method, path, []string{path})
	if err != nil {
		return 0, err
	}
	k.DestroyProcess(child)
	return elapsed, nil
}
