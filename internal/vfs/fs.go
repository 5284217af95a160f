// Package vfs implements the simulator's in-memory filesystem and
// descriptor layer: inodes and path resolution, open-file descriptions
// with shared offsets (the fork-inherited kind), per-process file
// descriptor tables with O_CLOEXEC, pipes, and character devices.
//
// The descriptor layer is deliberately faithful to POSIX inheritance
// semantics because a large part of "A fork() in the road" §4 is about
// what fork implicitly copies: descriptor *numbers* are per-process,
// but the offset lives in the shared description, so a forked child
// seeking a file moves the parent's position too. Tests under this
// package demonstrate exactly that.
package vfs

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/errno"
)

// InodeType distinguishes filesystem object kinds.
type InodeType uint8

// Inode types.
const (
	TypeFile InodeType = iota
	TypeDir
	TypeDevice
)

func (t InodeType) String() string {
	switch t {
	case TypeFile:
		return "file"
	case TypeDir:
		return "dir"
	case TypeDevice:
		return "dev"
	}
	return fmt.Sprintf("inode(%d)", int(t))
}

// Device is a character device backing a TypeDevice inode.
type Device interface {
	// ReadDev fills buf; n==0 with nil error means end of input.
	ReadDev(buf []byte) (int, error)
	// WriteDev consumes data.
	WriteDev(data []byte) (int, error)
}

// Inode is one filesystem object.
type Inode struct {
	Type InodeType
	data []byte // TypeFile
	// shared marks data as host-COW-aliased by a template or clone
	// machine (see Cloner) or by a window a frame holds (see Window):
	// the bytes must be copied out before the first in-place write.
	// Purely host-side bookkeeping.
	shared   bool
	children map[string]*Inode // TypeDir
	parent   *Inode            // TypeDir: ".."
	dev      Device            // TypeDevice
	nlink    int
}

// Size reports a file's length (0 for non-files).
func (ino *Inode) Size() uint64 { return uint64(len(ino.data)) }

// Data returns a file's contents (not a copy; callers must not mutate).
func (ino *Inode) Data() []byte { return ino.data }

// SetData replaces a file's contents (used by mkfs-style setup code).
func (ino *Inode) SetData(b []byte) {
	if ino.Type != TypeFile {
		panic("vfs: SetData on non-file")
	}
	ino.data = b
	ino.shared = false
}

// Window returns the file's bytes [off, off+n) without copying them:
// shorter at EOF, empty past it, and capacity-capped so an append to
// it cannot reach the bytes beyond. It implements addrspace.Backing,
// so executable images are demand-paged straight from a file. The
// window aliases the file, so it marks the contents shared: the next
// in-place write copies the file out first and every window handed out
// keeps the bytes it saw. The flag is written only when it is clear,
// so paging in from a stamp's inodes, which a clone already marks,
// writes nothing.
func (ino *Inode) Window(off uint64, n int) []byte {
	if off >= uint64(len(ino.data)) {
		return nil
	}
	end := min(off+uint64(n), uint64(len(ino.data)))
	if !ino.shared {
		ino.shared = true
	}
	return ino.data[off:end:end]
}

// FS is the filesystem: a tree of inodes rooted at "/".
type FS struct {
	root *Inode
}

// NewFS creates an empty filesystem containing only "/".
func NewFS() *FS {
	root := &Inode{Type: TypeDir, children: map[string]*Inode{}, nlink: 1}
	root.parent = root
	return &FS{root: root}
}

// Root returns the root directory inode.
func (fs *FS) Root() *Inode { return fs.root }

// split breaks path into components, handling ".", "..", and empties
// lazily during walk (".." needs the walk context).
func split(path string) []string {
	parts := strings.Split(path, "/")
	out := parts[:0]
	for _, p := range parts {
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

// Resolve walks path from cwd (used for relative paths; pass nil for
// "/") and returns the inode.
func (fs *FS) Resolve(cwd *Inode, path string) (*Inode, error) {
	ino, _, _, err := fs.resolveParent(cwd, path, false)
	return ino, err
}

// resolveParent walks path and returns (target, parentDir, lastName).
// If wantParent is true the target may be absent (nil) as long as the
// parent exists — the create path.
func (fs *FS) resolveParent(cwd *Inode, path string, wantParent bool) (*Inode, *Inode, string, error) {
	if path == "" {
		return nil, nil, "", errno.ENOENT
	}
	cur := cwd
	if strings.HasPrefix(path, "/") || cur == nil {
		cur = fs.root
	}
	parts := split(path)
	if len(parts) == 0 {
		return cur, cur.parent, ".", nil
	}
	for i, name := range parts {
		if cur.Type != TypeDir {
			return nil, nil, "", errno.ENOTDIR
		}
		last := i == len(parts)-1
		var next *Inode
		switch name {
		case ".":
			next = cur
		case "..":
			next = cur.parent
		default:
			next = cur.children[name]
		}
		if last {
			if next == nil {
				if wantParent && name != "." && name != ".." {
					return nil, cur, name, nil
				}
				return nil, nil, "", errno.ENOENT
			}
			return next, cur, name, nil
		}
		if next == nil {
			return nil, nil, "", errno.ENOENT
		}
		cur = next
	}
	panic("unreachable")
}

// Create makes (or truncates, if it exists) a regular file and returns
// its inode.
func (fs *FS) Create(cwd *Inode, path string) (*Inode, error) {
	ino, parent, name, err := fs.resolveParent(cwd, path, true)
	if err != nil {
		return nil, err
	}
	if ino != nil {
		switch ino.Type {
		case TypeDir:
			return nil, errno.EISDIR
		case TypeFile:
			ino.data = nil
			ino.shared = false
			return ino, nil
		default:
			return ino, nil
		}
	}
	f := &Inode{Type: TypeFile, nlink: 1}
	parent.children[name] = f
	return f, nil
}

// Mkdir creates a directory. The parent must exist.
func (fs *FS) Mkdir(cwd *Inode, path string) (*Inode, error) {
	ino, parent, name, err := fs.resolveParent(cwd, path, true)
	if err != nil {
		return nil, err
	}
	if ino != nil {
		return nil, errno.EEXIST
	}
	d := &Inode{Type: TypeDir, children: map[string]*Inode{}, parent: parent, nlink: 1}
	parent.children[name] = d
	return d, nil
}

// MkdirAll creates path and any missing ancestors.
func (fs *FS) MkdirAll(path string) (*Inode, error) {
	cur := fs.root
	for _, name := range split(path) {
		next := cur.children[name]
		if next == nil {
			next = &Inode{Type: TypeDir, children: map[string]*Inode{}, parent: cur, nlink: 1}
			cur.children[name] = next
		}
		if next.Type != TypeDir {
			return nil, errno.ENOTDIR
		}
		cur = next
	}
	return cur, nil
}

// Mknod installs a device node at path.
func (fs *FS) Mknod(path string, dev Device) (*Inode, error) {
	ino, parent, name, err := fs.resolveParent(nil, path, true)
	if err != nil {
		return nil, err
	}
	if ino != nil {
		return nil, errno.EEXIST
	}
	d := &Inode{Type: TypeDevice, dev: dev, nlink: 1}
	parent.children[name] = d
	return d, nil
}

// WriteFile creates path with the given contents (mkfs helper).
func (fs *FS) WriteFile(path string, data []byte) (*Inode, error) {
	ino, err := fs.Create(nil, path)
	if err != nil {
		return nil, err
	}
	ino.data = append([]byte(nil), data...)
	return ino, nil
}

// Remove unlinks a file or empty directory.
func (fs *FS) Remove(cwd *Inode, path string) error {
	ino, parent, name, err := fs.resolveParent(cwd, path, false)
	if err != nil {
		return err
	}
	if ino == fs.root {
		return errno.EBUSY
	}
	if ino.Type == TypeDir && len(ino.children) > 0 {
		return errno.ENOTEMPTY
	}
	delete(parent.children, name)
	ino.nlink--
	return nil
}

// ReadDir lists a directory's entry names in sorted order.
func (fs *FS) ReadDir(cwd *Inode, path string) ([]string, error) {
	ino, err := fs.Resolve(cwd, path)
	if err != nil {
		return nil, err
	}
	if ino.Type != TypeDir {
		return nil, errno.ENOTDIR
	}
	names := make([]string, 0, len(ino.children))
	for n := range ino.children {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// PathOf returns a canonical path for ino, or "?" if detached. Linear
// search; debugging aid only.
func (fs *FS) PathOf(ino *Inode) string {
	if ino == fs.root {
		return "/"
	}
	var walk func(dir *Inode, prefix string) string
	walk = func(dir *Inode, prefix string) string {
		for name, ch := range dir.children {
			if ch == ino {
				return prefix + "/" + name
			}
			if ch.Type == TypeDir {
				if p := walk(ch, prefix+"/"+name); p != "?" {
					return p
				}
			}
		}
		return "?"
	}
	return walk(fs.root, "")
}
