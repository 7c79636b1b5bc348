package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestRejectsBadFleetFlags: a negative -j, or the removed -shards, exits
// non-zero before any figure regenerates.
func TestRejectsBadFleetFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-j", "-1"}, &out); err == nil || !strings.Contains(err.Error(), "-j") {
		t.Fatalf("run(-j -1) = %v, want -j complaint", err)
	}
	if err := run([]string{"-shards", "2"}, &out); err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -shards") {
		t.Fatalf("run(-shards 2) = %v, want unknown-flag error", err)
	}
	if err := run([]string{"stray"}, &out); err == nil {
		t.Fatal("run accepted a stray positional argument")
	}
	if err := run([]string{"-no-such-flag"}, &out); err == nil {
		t.Fatal("run accepted an unknown flag")
	}
}

// TestOnlyWorkerInvariance: a fleet-run subset writes the same files and
// the same stdout at -j 1 and at -j 8.
func TestOnlyWorkerInvariance(t *testing.T) {
	runOnly := func(fleetArgs ...string) (string, map[string]string) {
		dir := t.TempDir()
		var out bytes.Buffer
		args := append([]string{"-quick", "-only", "figure4,figure9", "-out", dir}, fleetArgs...)
		if err := run(args, &out); err != nil {
			t.Fatal(err)
		}
		return out.String(), readDir(t, dir)
	}
	out1, files1 := runOnly("-j", "1")
	out8, files8 := runOnly("-j", "8")
	if out1 != out8 {
		t.Error("-j 1 and -j 8 printed different tables")
	}
	if !reflect.DeepEqual(files1, files8) {
		t.Error("-j 1 and -j 8 wrote different files")
	}
}

// TestOnlyWritesNamedJobs: -only writes exactly the named jobs' files (the
// timeline has no CSV twin) and runs them in registry order, whatever the
// order they are named in.
func TestOnlyWritesNamedJobs(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-quick", "-only", "timeline,figure4", "-out", dir}, &out); err != nil {
		t.Fatal(err)
	}
	files := readDir(t, dir)
	var names []string
	for name := range files {
		names = append(names, name)
	}
	slices.Sort(names)
	if want := []string{"figure4.csv", "figure4.txt", "timeline.txt"}; !slices.Equal(names, want) {
		t.Fatalf("wrote %v, want %v", names, want)
	}
	if want := files["figure4.txt"] + files["timeline.txt"]; out.String() != want {
		t.Error("stdout is not figure4 then timeline, as written to their files")
	}
}

// TestRejectsBadOnly: an unknown name, an empty element, and adaptive
// without -adaptive are errors naming the valid jobs, raised before any
// output directory is made. Under -adaptive, adaptive is a job.
func TestRejectsBadOnly(t *testing.T) {
	for _, only := range []string{"figure5", "figure2,", "", "adaptive"} {
		dir := filepath.Join(t.TempDir(), "out")
		err := run([]string{"-quick", "-only", only, "-out", dir}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "figure2,figure3,") || !strings.Contains(err.Error(), "timeline") {
			t.Errorf("run(-only %q) = %v, want an error listing the jobs", only, err)
		}
		if _, statErr := os.Stat(dir); statErr == nil {
			t.Errorf("run(-only %q) made the output directory", only)
		}
	}
	dir := t.TempDir()
	if err := run([]string{"-quick", "-only", "adaptive", "-adaptive", "default", "-out", dir}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "adaptive.txt")); err != nil {
		t.Error(err)
	}
}

// readDir returns every file in dir by name.
func readDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(b)
	}
	return files
}
