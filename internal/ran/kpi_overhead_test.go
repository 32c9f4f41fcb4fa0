package ran

import (
	"os"
	"testing"
	"time"

	"outran/internal/obs"
	"outran/internal/rng"
	"outran/internal/sim"
	"outran/internal/workload"
)

// kpiScenario runs the fixed benchmark scenario once. kpiEvery > 0
// enables KPI state and samples at that cadence the way the deployment
// loop does; profiled installs the phase profiler.
func kpiScenario(tb testing.TB, kpiEvery sim.Time, profiled bool) {
	cfg := DefaultLTEConfig()
	cfg.NumUEs = 8
	cfg.Grid.NumRB = 25
	cfg.Scheduler = SchedOutRAN
	cfg.Seed = 42
	cfg.KPIEvery = kpiEvery
	cell, err := NewCell(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if profiled {
		cell.SetPhaseProfiler(obs.NewPhaseProfiler())
	}
	const dur = 800 * sim.Millisecond
	src, err := workload.Poisson(workload.PoissonConfig{
		Dist:            workload.LTECellular(),
		NumUEs:          cfg.NumUEs,
		Load:            0.7,
		CellCapacityBps: cell.EffectiveCapacityBps(),
		Duration:        dur,
	}, rng.New(9))
	if err != nil {
		tb.Fatal(err)
	}
	cell.ScheduleSource(src, 0, dur)
	total := dur + 4*sim.Second
	if kpiEvery > 0 {
		for t := kpiEvery; t <= total; t += kpiEvery {
			cell.Run(t)
			cell.SampleKPI(t)
		}
	}
	cell.Run(total)
}

// gateRatio times the scenario min-of-rounds in both configurations
// and returns instrumented/baseline.
func gateRatio(t *testing.T, rounds int, baseline, instrumented func()) float64 {
	t.Helper()
	timeOne := func(fn func()) time.Duration {
		best := time.Duration(1<<63 - 1)
		for i := 0; i < rounds; i++ {
			start := time.Now()
			fn()
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	// Warm both paths so neither pays first-run costs.
	baseline()
	instrumented()
	return float64(timeOne(instrumented)) / float64(timeOne(baseline))
}

// TestKPIOverheadGate: with OUTRAN_OVERHEAD_GATE=1, KPI state plus
// per-100 ms sampling may cost at most 5% over the plain run — the
// telemetry budget of the live-KPI issue. Min-of-5 filters runner
// noise; the env guard keeps the timing off developer test runs.
func TestKPIOverheadGate(t *testing.T) {
	if os.Getenv("OUTRAN_OVERHEAD_GATE") == "" {
		t.Skip("set OUTRAN_OVERHEAD_GATE=1 to run the timing gate")
	}
	ratio := gateRatio(t, 5,
		func() { kpiScenario(t, 0, false) },
		func() { kpiScenario(t, 100*sim.Millisecond, false) })
	t.Logf("kpi sampling ratio %.3f", ratio)
	if ratio > 1.05 {
		t.Fatalf("KPI sampling costs %.1f%% over the plain run (budget 5%%)", 100*(ratio-1))
	}
}

// TestPhaseProfilerOverheadGate: the enabled profiler (two clock reads
// per instrumented phase, in one TTI interval of seven) must stay
// within 5% of the uninstrumented run. The disabled cost is pinned at
// zero separately — a nil profiler never reads the clock
// (obs.TestPhaseProfilerNilInert) and the hot path's allocation
// contract is unchanged.
func TestPhaseProfilerOverheadGate(t *testing.T) {
	if os.Getenv("OUTRAN_OVERHEAD_GATE") == "" {
		t.Skip("set OUTRAN_OVERHEAD_GATE=1 to run the timing gate")
	}
	ratio := gateRatio(t, 5,
		func() { kpiScenario(t, 0, false) },
		func() { kpiScenario(t, 0, true) })
	t.Logf("phase profiler ratio %.3f", ratio)
	if ratio > 1.05 {
		t.Fatalf("phase profiler costs %.1f%% enabled (budget 5%%)", 100*(ratio-1))
	}
}
