package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"elision/internal/fleet"
)

var update = flag.Bool("update", false, "rewrite pins.txt from the current program")

// roundZero runs round 0 of w at the default seed through the campaign and
// returns its jobs and fingerprints.
func roundZero(t *testing.T, w workload) ([]job, []uint64) {
	t.Helper()
	c := newCampaign(w, defaultSeed)
	jobs := c.js.round()
	outs := c.runRound(jobs, fleet.Config{Workers: workers})
	settle(outs)
	fps := make([]uint64, len(outs))
	for i, o := range outs {
		if o.err != nil {
			t.Fatalf("%s/%s: %v", w.name, jobs[i].id(), o.err)
		}
		fps[i] = o.fp
	}
	return jobs, fps
}

// TestPins checks every pinned round-0 fingerprint against the program and
// that every round-0 job has a pin; -update rewrites pins.txt instead.
func TestPins(t *testing.T) {
	got := map[string]uint64{}
	for _, w := range workloads {
		jobs, fps := roundZero(t, w)
		for i, j := range jobs {
			got[w.name+"/"+j.id()] = fps[i]
		}
	}
	if *update {
		if err := os.WriteFile("pins.txt", []byte(formatPins(got)), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	pins, err := parsePins(pinsText)
	if err != nil {
		t.Fatal(err)
	}
	if len(pins) != len(got) {
		t.Errorf("pins.txt has %d pins, round 0 has %d jobs", len(pins), len(got))
	}
	for k, fp := range got {
		if pins[k] != fp {
			t.Errorf("%s: fingerprint %016x, pinned %016x", k, fp, pins[k])
		}
	}
}

// TestGateTeeth proves failed_frac counts what the gate is for: a perturbed
// pin and a perturbed fingerprint each fail simulations, they are not
// ignored.
func TestGateTeeth(t *testing.T) {
	w, err := findWorkload("contend-write")
	if err != nil {
		t.Fatal(err)
	}

	t.Run("pin", func(t *testing.T) {
		res, err := bench(w, defaultSeed, time.Second, false, "", io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Fatalf("unperturbed run: correct=%v failed=%d, want a clean run", res.Correct, res.Failed)
		}
		pins, err := parsePins(pinsText)
		if err != nil {
			t.Fatal(err)
		}
		pins[w.name+"/r0.3"] ^= 1 << 17
		orig := pinsText
		pinsText = formatPins(pins)
		defer func() { pinsText = orig }()
		res, err = bench(w, defaultSeed, time.Second, false, "", io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		// Round 0 runs twice, timed and rechecked: both executions fail.
		if res.Correct || res.Failed != 2 {
			t.Errorf("perturbed pin: correct=%v failed=%d of %d, want 2 failed", res.Correct, res.Failed, res.Attempted)
		}
	})

	t.Run("fingerprint", func(t *testing.T) {
		c := newCampaign(w, 2)
		g, err := newGate(false)
		if err != nil {
			t.Fatal(err)
		}
		tl := c.timed(time.Nanosecond, g, newTestRef(t), false)
		tl.kept[0].fps[5] ^= 1
		c.recheck(tl, g)
		if g.failed != 1 || g.failedFrac() == 0 {
			t.Errorf("perturbed fingerprint: %d of %d failed, want 1", g.failed, g.attempted)
		}
	})

	t.Run("driver", func(t *testing.T) {
		c := newCampaign(w, 2)
		g, err := newGate(false)
		if err != nil {
			t.Fatal(err)
		}
		tl := c.timed(time.Nanosecond, g, newTestRef(t), false)
		tl.kept[0].fps[7] ^= 1
		if _, err := tracedPass(c, tl, g, t.TempDir()+"/trace.json", io.Discard); err != nil {
			t.Fatal(err)
		}
		// The untraced driver run fails the check; the point is then skipped.
		if g.failed != 1 {
			t.Errorf("perturbed harness fingerprint: %d of %d failed in the traced pass, want 1", g.failed, g.attempted)
		}
	})
}

func newTestRef(t *testing.T) *hostRef {
	t.Helper()
	h, err := newHostRef()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.close)
	return h
}

// formatPins renders pins in pins.txt's layout, sorted.
func formatPins(pins map[string]uint64) string {
	keys := make([]string, 0, len(pins))
	for k := range pins {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("# <workload> <job> <fingerprint>, taken at the default seed\n")
	for _, k := range keys {
		w, j, _ := strings.Cut(k, "/")
		fmt.Fprintf(&b, "%s %s %016x\n", w, j, pins[k])
	}
	return b.String()
}
