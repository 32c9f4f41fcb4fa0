package ran

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"testing"

	"outran/internal/obs"
	"outran/internal/rng"
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

// goldenHarness is the pinned cell.
func goldenHarness() Harness {
	cfg := DefaultLTEConfig().
		WithTopology(20, 100).
		ForScheduler(SchedOutRAN).
		WithSeed(1).
		WithWorkload(workload.PoissonSpec("lte", 0.6))
	return Harness{Config: cfg, Window: sim.Second, Drain: 12 * sim.Second}
}

// TestGoldenSummaryPin runs the pinned cell and compares the digest of
// its JSON summary against the recorded one.
func TestGoldenSummaryPin(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The Go spec lets other back ends fuse x*y+z into one
		// rounding (arm64, ppc64, s390x do), which moves float bits.
		t.Skipf("digest recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	cell, err := goldenHarness().Run()
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

// goldenHookedCase is one cell whose run summary and full JSONL trace
// are pinned by digest. The digests were recorded before deferred CQI
// reports and per-subband scheduling decisions landed, so they prove
// both byte-identical: the trace carries every per-RB OutRAN decision,
// HARQ outcome and RLC transmission, not only the end-of-run totals.
type goldenHookedCase struct {
	name    string
	sched   SchedulerKind
	rlc     RLCMode
	hooks   bool
	summary string
	trace   string
}

var goldenHookedCases = []goldenHookedCase{
	{"PF-UM", SchedPF, UM, false,
		"cbe3b83231d668c7df3ec0b88f83d6370afe749e8f3a8df6d6fefa3020707d52",
		"e0e2f82d73b91069ab9518a092197a1c3f47512df70c0f7b808d1267457863da"},
	{"OutRAN-AM", SchedOutRAN, AM, false,
		"559ef76acaa4832a787036edac93127b8403754e71508832c61dc5c0f5d08600",
		"a97b2bb8ee72f7753386c5eb78e5ef853e393d6825c129caeaa27ea6d205ee5e"},
	{"OutRAN-UM-hooks", SchedOutRAN, UM, true,
		"79606bcb268e4605321e80df76fd0479dae08160e3a8ebb2d52fba0ba90e57a3",
		"8faa39dcf36b273e992f4bcf89839ae0f71d034dcc7d4aeeb3b39b6a3912b7f3"},
}

// seededChannelHooks drops CQI reports and injects fades from one
// shared seeded stream, so the digest also pins the order in which
// the cell calls the two hooks: any reordering shifts every later
// draw.
func seededChannelHooks(seed uint64) FaultHooks {
	r := rng.New(seed)
	return FaultHooks{
		DropCQIReport: func(int, sim.Time) bool { return r.Float64() < 0.2 },
		SINROffsetDB: func(int, sim.Time) float64 {
			if r.Float64() < 0.15 {
				return -10 * r.Float64()
			}
			return 0
		},
	}
}

// goldenHookedHarness is the shared cell shape of the hooked goldens:
// 12 pedestrian UEs on a 50-RB LTE grid at load 0.6, short enough to
// run in well under a second each.
func goldenHookedHarness(tc goldenHookedCase) Harness {
	cfg := DefaultLTEConfig().
		WithTopology(12, 50).
		ForScheduler(tc.sched).
		WithSeed(7).
		WithWorkload(workload.PoissonSpec("lte", 0.6))
	cfg.RLC = tc.rlc
	h := Harness{Config: cfg, Warmup: 100 * sim.Millisecond, Window: 500 * sim.Millisecond, Drain: 2 * sim.Second}
	if tc.hooks {
		h.Setup = func(c *Cell) error {
			c.SetFaultHooks(seededChannelHooks(99))
			return nil
		}
	}
	return h
}

// TestGoldenHookedDigests runs each pinned cell with a JSONL tracer
// and compares the digests of its summary and its trace.
func TestGoldenHookedDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	for _, tc := range goldenHookedCases {
		t.Run(tc.name, func(t *testing.T) {
			h := goldenHookedHarness(tc)
			th := sha256.New()
			h.Tracer = obs.NewTracer(obs.NewJSONLSink(th))
			cell, err := h.Run()
			if err != nil {
				t.Fatal(err)
			}
			if err := h.Tracer.Close(); err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(cell.Summary())
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			gotSum := hex.EncodeToString(sum[:])
			gotTrace := hex.EncodeToString(th.Sum(nil))
			if gotSum != tc.summary || gotTrace != tc.trace {
				t.Fatalf("digests (summary %s, trace %s), pinned (%s, %s): simulated output changed\n%s",
					gotSum, gotTrace, tc.summary, tc.trace, b)
			}
		})
	}
}
