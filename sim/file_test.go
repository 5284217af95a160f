package sim_test

import (
	"errors"
	"io"
	"testing"

	"repro/sim"
)

// readToEOF reads f to io.EOF the way io.ReadAll does, but fails after
// a fixed number of calls instead of spinning forever on a reader that
// never reports its end.
func readToEOF(t *testing.T, f *sim.File) string {
	t.Helper()
	var got []byte
	buf := make([]byte, 4)
	for i := 0; i < 64; i++ {
		n, err := f.Read(buf)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			return string(got)
		}
		if err != nil {
			t.Fatalf("read %s: %v after %q", f.Name(), err, got)
		}
	}
	t.Fatalf("read %s: no io.EOF after 64 reads (got %q)", f.Name(), got)
	return ""
}

// TestFileReadReportsEOF holds File to *os.File's contract: io.EOF at
// the end of a file opened with System.Open and of a drained pipe
// whose writers are all closed, but a would-block error on a drained
// pipe with a live writer, and (0, nil) for a 0-byte read. The
// machine's own read(2) does not go through File and still sees
// POSIX's 0: cat reading the same file exits cleanly.
func TestFileReadReportsEOF(t *testing.T) {
	sys := newSys(t)
	w, err := sys.Create("/tmp/note")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	w.Close()

	f, err := sys.Open("/tmp/note")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := f.Read(nil); n != 0 || err != nil {
		t.Errorf("0-byte read = (%d, %v), want (0, nil)", n, err)
	}
	if got := readToEOF(t, f); got != "hello" {
		t.Errorf("file read %q, want %q", got, "hello")
	}
	if n, err := f.Read(make([]byte, 8)); n != 0 || err != io.EOF {
		t.Errorf("read past the end = (%d, %v), want (0, io.EOF)", n, err)
	}

	r, pw := sys.Pipe()
	if _, err := pw.Write([]byte("ab")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	if n, err := r.Read(buf); n != 2 || err != nil {
		t.Fatalf("pipe read = (%d, %v), want (2, nil)", n, err)
	}
	if n, err := r.Read(buf); n != 0 || err == nil || errors.Is(err, io.EOF) {
		t.Errorf("drained pipe with a live writer = (%d, %v), want a would-block error", n, err)
	}
	pw.Close()
	if got := readToEOF(t, r); got != "" {
		t.Errorf("closed pipe read %q, want nothing", got)
	}

	in, err := sys.Open("/tmp/note")
	if err != nil {
		t.Fatal(err)
	}
	cmd := sys.Command("cat")
	cmd.Stdin = in
	out, err := cmd.Output()
	if err != nil || string(out) != "hello" {
		t.Errorf("cat of the opened file = %q, %v; want %q and a clean exit", out, err, "hello")
	}
	in.Close()
}
