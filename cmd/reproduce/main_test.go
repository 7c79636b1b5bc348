package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"elision/internal/obs"
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
// timeline and the HTM probes have no CSV twin) and runs them in registry
// order, whatever the order they are named in.
func TestOnlyWritesNamedJobs(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-quick", "-only", "htmprobe,timeline,figure4", "-out", dir}, &out); err != nil {
		t.Fatal(err)
	}
	files := readDir(t, dir)
	var names []string
	for name := range files {
		names = append(names, name)
	}
	slices.Sort(names)
	if want := []string{"figure4.csv", "figure4.txt", "htmprobe.txt", "timeline.txt"}; !slices.Equal(names, want) {
		t.Fatalf("wrote %v, want %v", names, want)
	}
	if want := files["figure4.txt"] + files["timeline.txt"] + files["htmprobe.txt"]; out.String() != want {
		t.Error("stdout is not figure4, timeline, then htmprobe, as written to their files")
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

// TestObservedCampaignArtifacts: -prom writes a linting exposition carrying
// the campaign, harness and fleet families, -fleet-trace writes trace-event
// JSON, and a write to a full device fails the run.
func TestObservedCampaignArtifacts(t *testing.T) {
	dir := t.TempDir()
	promPath, tracePath := filepath.Join(dir, "campaign.prom"), filepath.Join(dir, "fleet.json")
	args := []string{"-quick", "-only", "figure4", "-j", "2", "-out", dir, "-prom", promPath, "-fleet-trace", tracePath}
	if err := run(args, io.Discard); err != nil {
		t.Fatal(err)
	}
	prom, err := os.ReadFile(promPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.LintPrometheus(bytes.NewReader(prom)); err != nil {
		t.Fatalf("campaign exposition does not lint: %v", err)
	}
	for _, want := range []string{
		"campaign_runs_total", "htm_commits_total", "cs_ops_total",
		"harness_prefill_hits_total", "harness_instance_builds_total",
		"fleet_jobs_total", "fleet_workers 2",
	} {
		if !bytes.Contains(prom, []byte(want)) {
			t.Errorf("exposition lacks %q", want)
		}
	}
	trace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var events []obs.TraceEvent
	if err := json.Unmarshal(trace, &events); err != nil {
		t.Fatalf("fleet trace is not valid JSON: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("fleet trace is empty")
	}

	if _, err := os.Stat("/dev/full"); err == nil {
		for _, flag := range []string{"-rollup", "-prom", "-fleet-trace"} {
			if err := run([]string{"-quick", "-only", "timeline", "-out", dir, flag, "/dev/full"}, io.Discard); err == nil {
				t.Errorf("run(%s /dev/full) succeeded, want the write error", flag)
			}
		}
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
