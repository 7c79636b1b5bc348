package main

import (
	"bytes"
	"strings"
	"testing"

	"elision/internal/fleet"
)

// TestRejectsBadIters: a non-positive -iters used to run the whole suite
// and then fail (or emit Inf) at JSON-encoding time; now it is rejected
// before any workload runs.
func TestRejectsBadIters(t *testing.T) {
	var out bytes.Buffer
	for _, iters := range []string{"0", "-3"} {
		err := run([]string{"-iters", iters}, &out)
		if err == nil {
			t.Fatalf("run accepted -iters %s", iters)
		}
		if !strings.Contains(err.Error(), "-iters") {
			t.Fatalf("error does not name the offending flag: %v", err)
		}
	}
}

func TestRejectsMalformedFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-no-such-flag"}, &out); err == nil {
		t.Fatal("run accepted an unknown flag")
	}
	if err := run([]string{"stray"}, &out); err == nil || !strings.Contains(err.Error(), "unexpected arguments") {
		t.Fatalf("run(stray) = %v, want unexpected-arguments error", err)
	}
}

// TestRejectsBadFleetFlags: a negative -j, or the removed -shards, -prom
// and -fleet-trace (reproduce writes the campaign exposition and fleet
// trace), exits non-zero before any workload runs.
func TestRejectsBadFleetFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-j", "-1"}, &out); err == nil || !strings.Contains(err.Error(), "-j") {
		t.Fatalf("run(-j -1) = %v, want -j complaint", err)
	}
	for _, name := range []string{"shards", "prom", "fleet-trace"} {
		if err := run([]string{"-" + name, "x"}, &out); err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -"+name) {
			t.Errorf("run(-%s x) = %v, want unknown-flag error", name, err)
		}
	}
}

// TestCampaignMetricsPopulated: the campaign measurement must report
// non-zero throughput and the expected prefill-restore profile (two cold
// fills — one per structure — and a hit for every other point).
func TestCampaignMetricsPopulated(t *testing.T) {
	prof := fleet.NewProfile()
	m := measureCampaign(fleet.Config{Workers: 4}, prof)
	if m.Points != len(campaignGrid()) || m.Workers < 1 {
		t.Fatalf("campaign geometry: %+v", m)
	}
	if m.SimsPerSec <= 0 || m.TxnsPerSec <= 0 || m.WallMs <= 0 {
		t.Fatalf("campaign throughput not populated: %+v", m)
	}
	if m.PrefillMisses != 2 || m.PrefillHits != uint64(m.Points-2) {
		t.Fatalf("prefill profile = %d hits / %d misses, want %d/2",
			m.PrefillHits, m.PrefillMisses, m.Points-2)
	}
	if m.PrefillHitRate <= 0.5 {
		t.Fatalf("prefill hit rate = %v, want > 0.5", m.PrefillHitRate)
	}
	if m.OccupancyPct <= 0 || m.OccupancyPct > 100 {
		t.Fatalf("occupancy = %v%%, want (0, 100]", m.OccupancyPct)
	}
	if prof.Jobs() != uint64(m.Points) {
		t.Fatalf("fleet profile saw %d jobs, want %d", prof.Jobs(), m.Points)
	}
}
