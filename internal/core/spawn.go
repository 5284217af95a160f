package core

import (
	"repro/internal/abi"
	"repro/internal/kernel"
	"repro/internal/sig"
	"repro/internal/vfs"
)

// FileActions accumulates posix_spawn file actions. The zero value is
// an empty list.
type FileActions struct {
	actions []kernel.FileAction
}

// AddDup2 schedules dup2(oldfd, newfd) in the child.
func (fa *FileActions) AddDup2(oldfd, newfd int) *FileActions {
	fa.actions = append(fa.actions, kernel.FileAction{Op: abi.FADup2, FD: oldfd, NewFD: newfd})
	return fa
}

// AddClose schedules close(fd) in the child.
func (fa *FileActions) AddClose(fd int) *FileActions {
	fa.actions = append(fa.actions, kernel.FileAction{Op: abi.FAClose, FD: fd})
	return fa
}

// AddOpen schedules open(path, flags) in the child, installed exactly
// at fd.
func (fa *FileActions) AddOpen(fd int, path string, flags vfs.OpenFlags) *FileActions {
	fa.actions = append(fa.actions, kernel.FileAction{Op: abi.FAOpen, FD: fd, Path: path, Flags: flags})
	return fa
}

// AddChdir schedules a working-directory change in the child,
// affecting subsequent relative AddOpen paths and the child's initial
// cwd (posix_spawn_file_actions_addchdir_np).
func (fa *FileActions) AddChdir(path string) *FileActions {
	fa.actions = append(fa.actions, kernel.FileAction{Op: abi.FAChdir, Path: path})
	return fa
}

// Len reports the number of actions.
func (fa *FileActions) Len() int { return len(fa.actions) }

func (fa *FileActions) list() []kernel.FileAction {
	if fa == nil {
		return nil
	}
	return fa.actions
}

// Attr is the posix_spawn attribute block. The zero value inherits
// everything inheritable.
type Attr struct {
	attr kernel.SpawnAttr
}

// SetSigDefault resets the given signals to their default disposition
// in the child (POSIX_SPAWN_SETSIGDEF).
func (a *Attr) SetSigDefault(set sig.Set) *Attr {
	a.attr.Flags |= abi.SpawnSetSigDef
	a.attr.SigDefault = set
	return a
}

// SetSigMask sets the child's initial signal mask
// (POSIX_SPAWN_SETSIGMASK).
func (a *Attr) SetSigMask(set sig.Set) *Attr {
	a.attr.Flags |= abi.SpawnSetSigMask
	a.attr.SigMask = set
	return a
}

func (a *Attr) spawnAttr() kernel.SpawnAttr {
	if a == nil {
		return kernel.SpawnAttr{}
	}
	return a.attr
}

// Spawn creates a child of parent running path with argv, applying
// file actions and attributes, and starts it. It is posix_spawn: the
// parent's address space is never touched, so the call's cost is
// independent of the parent's size.
func Spawn(k *kernel.Kernel, parent *kernel.Process, path string, argv []string,
	fa *FileActions, attr *Attr) (*kernel.Process, error) {
	return k.Spawn(parent, path, argv, fa.list(), attr.spawnAttr(), true)
}

// SpawnParked is Spawn for the measurement harness: the child is fully
// constructed but not enqueued, so creation cost can be measured
// without running it.
func SpawnParked(k *kernel.Kernel, parent *kernel.Process, path string, argv []string,
	fa *FileActions, attr *Attr) (*kernel.Process, error) {
	return k.Spawn(parent, path, argv, fa.list(), attr.spawnAttr(), false)
}
