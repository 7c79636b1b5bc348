package harness

import (
	"fmt"
	"testing"
)

// benchCampaignGrid is a small scheme×lock×structure grid sharing two
// prefill keys, mirroring the shape of the real figure campaigns.
func benchCampaignGrid() []DSConfig {
	base := DSConfig{
		Threads: 8, Size: 128, Mix: MixModerate,
		BudgetCycles: 200_000, Seed: 42, Quantum: 128,
	}
	var grid []DSConfig
	for _, st := range []Structure{StructTree, StructHash} {
		for _, scheme := range []SchemeID{SchemeStandard, SchemeHLE, SchemeOptSLR, SchemeHLESCM} {
			for _, lock := range []LockID{LockTTAS, LockMCS} {
				c := base
				c.Structure, c.Scheme, c.Lock = st, scheme, lock
				grid = append(grid, c)
			}
		}
	}
	return grid
}

// BenchmarkFleetCampaign measures whole-campaign throughput through the
// pooled-instance Runner at several worker counts. A fresh Runner per
// iteration keeps the memoization cache from short-circuiting the work.
func BenchmarkFleetCampaign(b *testing.B) {
	grid := benchCampaignGrid()
	for _, j := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("j=%d", j), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := NewRunner()
				r.Fleet.Workers = j
				r.RunAll(grid)
			}
		})
	}
}

// BenchmarkPrefillColdFill times the O(Size) insert-replay fill that every
// point paid before prefill snapshots existed.
func BenchmarkPrefillColdFill(b *testing.B) {
	cfg := DSConfig{
		Structure: StructTree, Threads: 8, Size: 4096, Mix: MixModerate,
		Scheme: SchemeStandard, Lock: LockTTAS,
		BudgetCycles: 1, Seed: 42, Quantum: 128,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// No FillCache: every run replays the fill from scratch.
		NewInstance(nil).Run(cfg)
	}
}

// BenchmarkPrefillRestore times the same point when the fill is restored
// from a shared snapshot by memory copy.
func BenchmarkPrefillRestore(b *testing.B) {
	cfg := DSConfig{
		Structure: StructTree, Threads: 8, Size: 4096, Mix: MixModerate,
		Scheme: SchemeStandard, Lock: LockTTAS,
		BudgetCycles: 1, Seed: 42, Quantum: 128,
	}
	in := NewInstance(NewFillCache())
	in.Run(cfg) // capture the snapshot
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Run(cfg)
	}
}
