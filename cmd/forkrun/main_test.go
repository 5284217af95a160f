package main

import (
	"bytes"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// TestRunRAMFlag holds -ram to its unit, MiB: hog maps 16 MiB, which a
// 64 MiB machine grants and a 4 MiB one refuses (hog then exits 2 with
// nothing on stderr). A count whose byte count does not fit in 64 bits
// is refused with a message naming the flag, instead of wrapping to 0,
// which the system takes for its 4 GiB default.
func TestRunRAMFlag(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		code    int
		wantErr string // stderr must contain it; "" means stderr must be empty
	}{
		{[]string{"-ram", "64", "hog", "16"}, 0, ""},
		{[]string{"-ram", "4", "hog", "16"}, 2, ""},
		{[]string{"-ram", "17592186044415", "true"}, 0, ""},
		{[]string{"-ram", "17592186044416", "true"}, 2, "-ram 17592186044416 MiB"},
		{[]string{"-ram", "18446744073709551615", "true"}, 2, "-ram 18446744073709551615 MiB"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, strings.NewReader(""), &stdout, &stderr)
		if code != tc.code {
			t.Errorf("forkrun %s exited %d, want %d (stderr %q)", strings.Join(tc.args, " "), code, tc.code, stderr.String())
		}
		if got := stderr.String(); (tc.wantErr == "") != (got == "") || !strings.Contains(got, tc.wantErr) {
			t.Errorf("forkrun %s: stderr %q, want it to contain %q", strings.Join(tc.args, " "), got, tc.wantErr)
		}
	}
}

// TestUsageCommentStatesRAMUnit holds the package doc's -ram line to
// the flag: it names the unit, MiB, and the default that -h prints.
func TestUsageCommentStatesRAMUnit(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	var line string
	for _, l := range strings.Split(f.Doc.Text(), "\n") {
		if strings.HasPrefix(strings.TrimSpace(l), "-ram ") {
			line = l
		}
	}
	var stderr bytes.Buffer
	if code := run([]string{"-h"}, strings.NewReader(""), &bytes.Buffer{}, &stderr); code != 0 {
		t.Fatalf("forkrun -h exited %d", code)
	}
	if !strings.Contains(stderr.String(), "physical memory in MiB (default 4096)") {
		t.Fatalf("forkrun -h no longer documents -ram as MiB with default 4096:\n%s", stderr.String())
	}
	if !strings.Contains(line, "MiB") || !strings.Contains(line, "default 4096") {
		t.Errorf("package doc's -ram line %q does not say MiB and default 4096", line)
	}
}
