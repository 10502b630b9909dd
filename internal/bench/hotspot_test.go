package bench

import (
	"strings"
	"testing"
)

// TestHotspotPlantedRankingAndExemplars runs the skewed-workload experiment
// once and checks its claims: the planted subtrees rank first at both
// depths, and every p99-breaching op class pinned a breach exemplar.
func TestHotspotPlantedRankingAndExemplars(t *testing.T) {
	out, claims, err := Hotspot(ExpOptions{Seed: 1})
	if err != nil {
		t.Fatalf("Hotspot: %v", err)
	}
	requireClaims(t, claims, "hotspot/top-rank", "hotspot/dataset-ranks", "hotspot/exemplars")
	if !strings.Contains(out, "where the time went in the slowest exemplar") {
		t.Errorf("slowest exemplar not rendered through the profiler:\n%s", out)
	}
}

// TestHotspotDeterministic pins run-to-run reproducibility: the same seed
// must yield byte-identical reports.
func TestHotspotDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two full hotspot runs in -short mode")
	}
	a, _, err := Hotspot(ExpOptions{Seed: 2})
	if err != nil {
		t.Fatalf("Hotspot run 1: %v", err)
	}
	b, _, err := Hotspot(ExpOptions{Seed: 2})
	if err != nil {
		t.Fatalf("Hotspot run 2: %v", err)
	}
	if a != b {
		t.Errorf("hotspot report not deterministic for seed 2:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
}
