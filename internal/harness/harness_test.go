package harness

import (
	"strings"
	"testing"

	"elision/internal/core"
	"elision/internal/fleet"
)

func TestRunDataStructureDeterministic(t *testing.T) {
	cfg := DSConfig{
		Structure: StructTree, Threads: 4, Size: 64, Mix: MixModerate,
		Scheme: SchemeHLESCM, Lock: LockMCS, BudgetCycles: 100_000,
		Seed: 9, Quantum: 64,
	}
	a := NewInstance(nil).Run(cfg)
	b := NewInstance(nil).Run(cfg)
	if a.Stats != b.Stats || a.Cycles != b.Cycles {
		t.Fatalf("replay diverged: %+v vs %+v", a.Stats, b.Stats)
	}
	if a.Stats.Ops == 0 {
		t.Fatal("no operations completed")
	}
}

func TestRunnerMemoizes(t *testing.T) {
	r := NewRunner()
	computed := 0
	r.Fleet.Progress = func(done, total int) { computed++ }
	cfg := DSConfig{
		Structure: StructHash, Threads: 2, Size: 64, Mix: MixLookupOnly,
		Scheme: SchemeHLE, Lock: LockTTAS, BudgetCycles: 50_000, Seed: 1, Quantum: 64,
	}
	r.RunAll([]DSConfig{cfg, cfg, cfg})
	r.RunAll([]DSConfig{cfg})
	if computed != 1 {
		t.Fatalf("computed %d times, want 1 (memoization broken)", computed)
	}
}

// TestFigure2Shapes asserts §4's qualitative findings at test scale.
func TestFigure2Shapes(t *testing.T) {
	r := NewRunner()
	sc := TestScale()
	_ = Figure2(r, sc)
	nt := sc.maxThreads()
	for _, size := range sc.Sizes {
		hleMCS := r.Run(sc.point(size, MixModerate, SchemeHLE, LockMCS, nt))
		if f := hleMCS.Stats.NonSpecFraction(); f < 0.8 {
			t.Errorf("size %d: HLE-MCS non-speculative fraction %.2f, want lemming collapse > 0.8", size, f)
		}
	}
	// TTAS recovers as the tree grows.
	small := r.Run(sc.point(sc.Sizes[0], MixModerate, SchemeHLE, LockTTAS, nt))
	large := r.Run(sc.point(sc.Sizes[len(sc.Sizes)-1], MixModerate, SchemeHLE, LockTTAS, nt))
	if small.Stats.NonSpecFraction() <= large.Stats.NonSpecFraction() {
		t.Errorf("HLE-TTAS non-spec fraction did not fall with size: %.3f -> %.3f",
			small.Stats.NonSpecFraction(), large.Stats.NonSpecFraction())
	}
}

// TestFigure9Shapes asserts the headline scaling claims.
func TestFigure9Shapes(t *testing.T) {
	r := NewRunner()
	sc := TestScale()
	_ = Figure9(r, sc)
	nt := sc.maxThreads()
	hleMCS := r.Run(sc.point(128, MixModerate, SchemeHLE, LockMCS, nt))
	stdMCS := r.Run(sc.point(128, MixModerate, SchemeStandard, LockMCS, nt))
	if hleMCS.Throughput() > 1.5*stdMCS.Throughput() {
		t.Errorf("plain HLE-MCS at %d threads shows speedup (%.1f vs %.1f); lemming effect missing",
			nt, hleMCS.Throughput(), stdMCS.Throughput())
	}
	for _, s := range []SchemeID{SchemeHLESCM, SchemeOptSLR, SchemeSLRSCM} {
		res := r.Run(sc.point(128, MixModerate, s, LockMCS, nt))
		if res.Throughput() < 2*hleMCS.Throughput() {
			t.Errorf("%s on MCS (%.1f) does not clearly beat plain HLE (%.1f)",
				s, res.Throughput(), hleMCS.Throughput())
		}
	}
}

// TestFigure10Shapes asserts the software schemes beat plain HLE on MCS.
func TestFigure10Shapes(t *testing.T) {
	r := NewRunner()
	sc := TestScale()
	tabs := Figure10(r, sc)
	if len(tabs) != 6 {
		t.Fatalf("Figure10 produced %d tables, want 6", len(tabs))
	}
	nt := sc.maxThreads()
	for _, size := range sc.Sizes {
		base := r.Run(sc.point(size, MixModerate, SchemeHLE, LockMCS, nt))
		scm := r.Run(sc.point(size, MixModerate, SchemeHLESCM, LockMCS, nt))
		if scm.Throughput() < 1.5*base.Throughput() {
			t.Errorf("size %d: HLE-SCM/HLE on MCS = %.2f, want > 1.5",
				size, scm.Throughput()/base.Throughput())
		}
	}
}

func TestFigure3Emits(t *testing.T) {
	r := NewRunner()
	sc := TestScale()
	tabs := Figure3(r, sc)
	if len(tabs) != 2 {
		t.Fatalf("Figure3 produced %d tables, want 2", len(tabs))
	}
	for _, tb := range tabs {
		if len(tb.Rows) == 0 {
			t.Fatalf("%s: no time slots", tb.Title)
		}
	}
}

// TestFigure11Smoke also checks that the STAMP sweep fans out under the
// runner's fleet config: its profile records one job span per STAMP run
// (9 apps × 2 locks × 6 schemes).
func TestFigure11Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full STAMP sweep")
	}
	r := NewRunner()
	r.Fleet = fleet.Config{Workers: 2, Profile: fleet.NewProfile()}
	tabs, err := Figure11(r, TestStampScale())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(r.Fleet.Profile.Events()); got != 108 {
		t.Fatalf("fleet profile recorded %d job spans, want 108", got)
	}
	if len(tabs) != 2 {
		t.Fatalf("Figure11 produced %d tables, want 2", len(tabs))
	}
	for _, tb := range tabs {
		if len(tb.Rows) != 9 {
			t.Fatalf("%s: %d rows, want 9", tb.Title, len(tb.Rows))
		}
		for _, row := range tb.Rows {
			if row[1] != "1.00" {
				t.Fatalf("%s: standard column not normalized: %v", tb.Title, row)
			}
		}
	}
}

func TestHashTableComparisonSmoke(t *testing.T) {
	r := NewRunner()
	sc := TestScale()
	tabs := HashTableComparison(r, sc)
	if len(tabs) != 2 {
		t.Fatalf("got %d tables, want 2", len(tabs))
	}
}

func TestTableRender(t *testing.T) {
	tb := Table{Title: "T", Columns: []string{"a", "bb"}}
	tb.AddRow("1", "2")
	tb.AddRow("333", "4")
	var sbText, sbCSV strings.Builder
	tb.Render(&sbText)
	tb.RenderCSV(&sbCSV)
	text := sbText.String()
	if !strings.Contains(text, "T\n") || !strings.Contains(text, "333") {
		t.Fatalf("Render output wrong:\n%s", text)
	}
	csv := sbCSV.String()
	if !strings.Contains(csv, "a,bb\n") || !strings.Contains(csv, "333,4\n") {
		t.Fatalf("RenderCSV output wrong:\n%s", csv)
	}
}

func TestMixNames(t *testing.T) {
	if MixLookupOnly.Name() != "lookups-only" ||
		MixModerate.Name() != "20% updates" ||
		MixExtensive.Name() != "100% updates" {
		t.Fatal("mix names changed; figure titles depend on them")
	}
	if got := (Mix{5, 3}).Name(); got != "5%ins/3%del" {
		t.Fatalf("custom mix name: %s", got)
	}
}

func TestThroughputZeroCycles(t *testing.T) {
	if (Result{}).Throughput() != 0 {
		t.Fatal("Throughput on empty result must be 0")
	}
}

// TestRawHLEOverBackoffTTASMatchesTTAS: BackoffTTAS speaks TTAS's lock-word
// protocol and differs only in Lock, which raw HLE never calls (its fallback
// is the re-executed TAS). So raw HLE must test-and-wait before each
// XACQUIRE over both locks, and the two runs must agree exactly.
func TestRawHLEOverBackoffTTASMatchesTTAS(t *testing.T) {
	for _, cfg := range []DSConfig{
		{Structure: StructTree, Threads: 8, Size: 8, Mix: MixExtensive, BudgetCycles: 150_000, Seed: 11, Quantum: 128},
		{Structure: StructTree, Threads: 8, Size: 64, Mix: MixModerate, BudgetCycles: 150_000, Seed: 3, Quantum: 128, Cores: 4},
		{Structure: StructHash, Threads: 4, Size: 32, Mix: MixExtensive, BudgetCycles: 100_000, Seed: 5, Quantum: 64},
	} {
		cfg.Scheme = SchemeHLE
		cfg.Lock = LockTTAS
		want := NewInstance(nil).Run(cfg)
		cfg.Lock = core.LockNameTTASBackoff
		got := NewInstance(nil).Run(cfg)
		if got.Stats != want.Stats || got.Cycles != want.Cycles {
			t.Errorf("%s size %d cores %d: ttas-backoff %+v in %d cycles, ttas %+v in %d cycles",
				cfg.Structure, cfg.Size, cfg.Cores, got.Stats, got.Cycles, want.Stats, want.Cycles)
		}
	}
}
