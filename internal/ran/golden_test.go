package ran

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"testing"

	"outran/internal/sim"
	"outran/internal/workload"
)

// goldenSummarySHA256 is the sha256 of the JSON run summary of the
// paper's §6.2 cell shape at reduced length: 20 pedestrian UEs on a
// 100-RB LTE grid, OutRAN, RLC UM, LTE Poisson at load 0.6, seed 1, a
// 1 s arrival window and the 12 s outran-sim drain. It was recorded
// before the PHY fast path (precomputed Jakes ω, per-instant wideband
// memo, cached static gain) landed, so it proves that optimisation is
// byte-identical across commits; the same-binary double-run gates
// cannot. A change that moves this digest changes simulated output
// and must say so; an opt-in approximate channel mode must leave it
// alone in the default mode.
const goldenSummarySHA256 = "5c8f4c1e01047e6dfb0a49c055fe166265b53fbdc1f923d04beb515ab5fd690b"

// TestGoldenSummaryPin runs the pinned cell and compares the digest of
// its JSON summary against the recorded one.
func TestGoldenSummaryPin(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The Go spec lets other back ends fuse x*y+z into one
		// rounding (arm64, ppc64, s390x do), which moves float bits.
		t.Skipf("digest recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	cfg := DefaultLTEConfig().
		WithTopology(20, 100).
		ForScheduler(SchedOutRAN).
		WithSeed(1).
		WithWorkload(workload.PoissonSpec("lte", 0.6))
	cell, err := Harness{Config: cfg, Window: sim.Second, Drain: 12 * sim.Second}.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(cell.Summary())
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != goldenSummarySHA256 {
		t.Fatalf("run summary digest %s, pinned %s: simulated output changed\n%s", got, goldenSummarySHA256, b)
	}
}
