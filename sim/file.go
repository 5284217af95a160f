package sim

import (
	"fmt"
	"io"

	"repro/internal/vfs"
)

// File is a host-side handle on a simulated open file description —
// the sim analogue of *os.File. Files come from System.Open,
// System.Create, and System.Pipe, and are wired into commands through
// Cmd.Stdin/Stdout/Stderr or Cmd.ExtraFiles, which grant the child its
// own reference; Close drops only the host's.
type File struct {
	of   *vfs.OpenFile
	name string
}

// Name reports the path (or a pipe tag) the file was opened as.
func (f *File) Name() string { return f.name }

// Read reads from the host's file offset. At the end of a file, or of
// a drained pipe whose writers are all closed, it returns io.EOF, as
// *os.File does, so io.ReadAll and friends terminate; the machine's
// own read(2) does not come through here and still sees POSIX's 0. A
// drained pipe with live writers returns a would-block error (EAGAIN)
// rather than blocking: the host is not a schedulable thread, so
// host-side reads never park.
func (f *File) Read(p []byte) (int, error) {
	if f.of == nil {
		return 0, fmt.Errorf("sim: read %s: file already closed", f.name)
	}
	n, err := f.of.Read(p)
	if n == 0 && err == nil && len(p) > 0 {
		return 0, io.EOF
	}
	return n, err
}

// Write writes at the host's file offset (EAGAIN on a full pipe).
func (f *File) Write(p []byte) (int, error) {
	if f.of == nil {
		return 0, fmt.Errorf("sim: write %s: file already closed", f.name)
	}
	return f.of.Write(p)
}

// Close releases the host's reference. Closing a pipe end the host no
// longer needs is what lets readers in the machine see EOF.
func (f *File) Close() error {
	if f.of == nil {
		return fmt.Errorf("sim: file already closed")
	}
	f.of.Release()
	f.of = nil
	return nil
}

// raw returns the open-file description, or nil after Close.
func (f *File) raw() *vfs.OpenFile { return f.of }

// Open opens an existing simulated file for reading.
func (s *System) Open(path string) (*File, error) {
	ino, err := s.k.FS().Resolve(nil, path)
	if err != nil {
		return nil, err
	}
	return &File{of: vfs.NewOpenFile(ino, vfs.ORdOnly), name: path}, nil
}

// Create creates (or truncates) a simulated file for writing.
func (s *System) Create(path string) (*File, error) {
	ino, err := s.k.FS().Create(nil, path)
	if err != nil {
		return nil, err
	}
	ino.SetData(nil)
	return &File{of: vfs.NewOpenFile(ino, vfs.OWrOnly), name: path}, nil
}

// Pipe returns a connected simulated pipe pair: bytes written to w are
// read from r. Hand the ends to different commands to build pipelines,
// then Close the host's copies so EOF can propagate.
func (s *System) Pipe() (r, w *File) {
	ro, wo := vfs.NewPipe()
	return &File{of: ro, name: "pipe:r"}, &File{of: wo, name: "pipe:w"}
}
