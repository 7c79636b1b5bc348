package cli

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func writeString(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}

// TestDashIsStdout: "-" writes to the given stdout and creates no file.
func TestDashIsStdout(t *testing.T) {
	var out bytes.Buffer
	if err := Write("-", &out, writeString("artifact\n")); err != nil {
		t.Fatal(err)
	}
	if out.String() != "artifact\n" {
		t.Fatalf("stdout = %q", out.String())
	}
}

// TestWritesFile: any other path is created, written and flushed.
func TestWritesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.txt")
	var out bytes.Buffer
	if err := Write(path, &out, writeString("artifact\n")); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "artifact\n" || out.Len() != 0 {
		t.Fatalf("file = %q, stdout = %q", b, out.String())
	}
}

// TestMissingDirectory: a path that cannot be created is an error, and
// write never runs.
func TestMissingDirectory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "no", "such", "dir", "a.txt")
	ran := false
	err := Write(path, io.Discard, func(io.Writer) error { ran = true; return nil })
	if err == nil || ran {
		t.Fatalf("Write(%s) = %v, ran = %v; want a create error before write", path, err, ran)
	}
}

// TestFullDevice: a write the device refuses is an error even though the
// write func, writing into the buffer, saw none.
func TestFullDevice(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full")
	}
	if err := Write("/dev/full", io.Discard, writeString("artifact\n")); err == nil {
		t.Fatal("Write(/dev/full) succeeded")
	}
}

// TestWriteErrorClosesFile: write's own error is returned as is, and the
// file is closed all the same.
func TestWriteErrorClosesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.txt")
	boom := errors.New("boom")
	err := Write(path, io.Discard, func(w io.Writer) error {
		io.WriteString(w, "partial")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Write = %v, want %v", err, boom)
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd to list open files")
	}
	for _, fd := range fds {
		if target, _ := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); target == path {
			t.Fatalf("fd %s still open on %s", fd.Name(), path)
		}
	}
}
