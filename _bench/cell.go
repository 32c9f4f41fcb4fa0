package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"syscall"
	"time"

	"outran/internal/core"
	"outran/internal/deploy"
	"outran/internal/mac"
	"outran/internal/metrics"
	"outran/internal/obs"
	"outran/internal/phy"
	"outran/internal/ran"
	"outran/internal/rlc"
	"outran/internal/rng"
	"outran/internal/sim"
	"outran/internal/workload"
)

// Drain policy: after its arrival span (or a deployment's horizon) a
// cell runs on in drainStep steps until every recorded flow has
// completed. A flow still open at drainCap counts as failed.
const (
	drainStep = 1 * sim.Second
	drainCap  = 120 * sim.Second
)

// minShortFlows is the pooled short-flow count below which the p99 has
// fewer than ten samples beyond it and is not reported as valid.
const minShortFlows = 1000

// cellWorkload is a single-cell workload: every execution is one
// ran.Harness cell driven on one goroutine.
type cellWorkload struct {
	name   string
	config func() ran.Config
	// Arrival span: flows arriving in the window are measured, warmup
	// and tail traffic only loads the cell.
	warmup, window, tail sim.Time
	// placements is the number of UE drops one run pools: execution k
	// uses cell seed k+1 for every --seed, so --seed varies the
	// arrivals and the drops stay part of the workload's definition.
	placements int
	// repeatAt is how far each same-seed repetition replays before its
	// summary is compared with the one the full run captured there.
	repeatAt sim.Time
	// setupBuilds is how many builds are timed for setup_s before the
	// measured executions.
	setupBuilds int
}

func (w *cellWorkload) Name() string { return w.name }

// span is the arrival span: warmup, measured window and tail.
func (w *cellWorkload) span() sim.Time { return w.warmup + w.window + w.tail }

// execSeed is one execution's seeds: the UE drop and the arrivals.
type execSeed struct{ placement, arrivals uint64 }

// execSeeds derives a run's executions from --seed.
func (w *cellWorkload) execSeeds(seed uint64) []execSeed {
	r := rng.New(seed)
	out := make([]execSeed, w.placements)
	for k := range out {
		a := r.Uint64()
		if a == 0 {
			a = 1 // 0 would make the harness derive the arrivals from the cell seed
		}
		out[k] = execSeed{placement: uint64(k + 1), arrivals: a}
	}
	return out
}

func (w *cellWorkload) harness(e execSeed) ran.Harness {
	return ran.Harness{
		Config:       w.config().WithSeed(e.placement),
		Warmup:       w.warmup,
		Window:       w.window,
		Tail:         w.tail,
		WorkloadSeed: e.arrivals,
	}
}

// execution is one built and driven cell with its host timings.
type execution struct {
	cell  *ran.Cell
	build time.Duration // Harness.Build: construction up to the first event
	run   time.Duration // engine time, pauses excluded
	// cpu is the process CPU time the engine took; only a repetition,
	// which runs alone, measures it.
	cpu time.Duration
	// atRepeat is the cell's summary at repeatAt, as JSON.
	atRepeat []byte
}

// start builds the cell of h and times the build.
func start(h ran.Harness) (*execution, error) {
	t := time.Now()
	c, err := h.Build()
	if err != nil {
		return nil, err
	}
	return &execution{cell: c, build: time.Since(t)}, nil
}

// runTo advances the cell to until and adds the wall time to run.
func (e *execution) runTo(until sim.Time) {
	t := time.Now()
	e.cell.Run(until)
	e.run += time.Since(t)
}

// full runs one execution over its arrival span and drains it,
// capturing the summary at repeatAt on the way.
func (w *cellWorkload) full(es execSeed) (*execution, error) {
	e, err := start(w.harness(es))
	if err != nil {
		return nil, err
	}
	e.runTo(w.repeatAt)
	if e.atRepeat, err = summaryJSON(e.cell); err != nil {
		return nil, err
	}
	e.runTo(w.span())
	t := time.Now()
	w.drain(e.cell)
	e.run += time.Since(t)
	return e, nil
}

// repeat replays an execution from scratch up to repeatAt.
func (w *cellWorkload) repeat(es execSeed) (*execution, error) {
	e, err := start(w.harness(es))
	if err != nil {
		return nil, err
	}
	c0 := cpuTime()
	e.runTo(w.repeatAt)
	e.cpu = cpuTime() - c0
	e.atRepeat, err = summaryJSON(e.cell)
	return e, err
}

// cpuTime is the CPU time, user and system, the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// summaryJSON is the cell's simulated summary without the wall-clock
// phase profile, the form two runs are compared in.
func summaryJSON(c *ran.Cell) ([]byte, error) {
	s := c.Summary()
	s.Phases = nil
	return json.Marshal(s)
}

// checkCell applies the per-cell correctness checks after a run.
func checkCell(s *session, label string, c *ran.Cell) {
	if err := c.AuditInvariants(); err != nil {
		s.failf("%s: invariant audit: %v", label, err)
	}
	if st := c.CollectStats(); st.FlowsCompleted > st.FlowsStarted {
		s.failf("%s: %d flows completed but only %d started", label, st.FlowsCompleted, st.FlowsStarted)
	}
}

// fctPool gathers measured FCTs by size class across executions.
type fctPool [3][]sim.Time

func (p *fctPool) add(samples []metrics.FCTSample) {
	for _, x := range samples {
		c := metrics.ClassOf(x.Size)
		p[c] = append(p[c], x.FCT)
	}
}

// fctMetrics fills the FCT end-to-end metrics. The medians come from
// the flows the run pooled. The p99 is each execution's own short-flow
// p99, and the run reports the median across executions: a pooled p99
// follows whichever execution had the worst busy spell. Each execution
// must have at least ten samples beyond its p99.
func fctMetrics(s *session, m map[string]float64, short, long metrics.Stats, perExec []metrics.Stats) {
	var p99s []float64
	minCount := -1
	for _, e := range perExec {
		p99s = append(p99s, e.P99.Milliseconds())
		if minCount < 0 || e.Count < minCount {
			minCount = e.Count
		}
	}
	m["fct_short_p50_ms"] = short.P50.Milliseconds()
	m["fct_short_p99_ms"] = median(p99s)
	m["fct_long_p50_ms"] = long.P50.Milliseconds()
	s.logf("short flows: %d samples, at least %d per execution (%d beyond its p99); long flows: %d samples",
		short.Count, minCount, minCount/100, long.Count)
	s.logf("short-flow p99 per execution (ms): %s", formatList(p99s))
	if minCount < minShortFlows {
		s.failf("an execution measured only %d short flows; its p99 needs at least %d", minCount, minShortFlows)
	}
	if long.Count == 0 {
		s.failf("no long flows measured")
	}
}

func (w *cellWorkload) measure(s *session) (map[string]float64, tally) {
	t0 := time.Now()
	seeds := w.execSeeds(s.seed)
	var setup []float64
	for i := 0; i < w.setupBuilds; i++ {
		runtime.GC()
		e, err := start(w.harness(seeds[i%len(seeds)]))
		if err != nil {
			s.failf("build: %v", err)
			return nil, tally{}
		}
		setup = append(setup, e.build.Seconds())
	}

	// The executions share a pool of GOMAXPROCS workers; each cell runs
	// on one goroutine.
	execs := make([]*execution, len(seeds))
	err := deploy.ForEach(len(seeds), runtime.GOMAXPROCS(0), func(k int) error {
		var err error
		execs[k], err = w.full(seeds[k])
		return err
	})
	if err != nil {
		s.failf("%v", err)
		return nil, tally{}
	}
	var simSec float64
	var se, fair []float64
	var pool fctPool
	var perExec []metrics.Stats
	var t tally
	captured := make([][]byte, len(seeds))
	for k, e := range execs {
		simSec += e.cell.Eng.Now().Seconds()
		checkCell(s, fmt.Sprintf("execution %d", k), e.cell)
		captured[k] = e.atRepeat
		st := e.cell.CollectStats()
		t.add(st.FlowsStarted, st.FlowsCompleted)
		pool.add(e.cell.FCT.Samples())
		var own fctPool
		own.add(e.cell.FCT.Samples())
		perExec = append(perExec, metrics.ComputeStats(own[metrics.Short]))
		se = append(se, st.MeanSpectralEff)
		fair = append(fair, st.MeanFairnessIndex)
	}

	// Same-seed repetitions: one of every execution, then as many more,
	// round robin, as the budget leaves room for. They run alone, one
	// after another after a GC, so they are what host time is measured
	// on: their builds, like the set-up builds, feed setup_s, and the
	// CPU time their engines take gives cells_per_core. CPU time leaves
	// out the spells a shared host keeps the process off its cores. The
	// pool's executions share the cores and their garbage collector, and
	// time nothing.
	engine := make([][]float64, len(seeds)) // engine CPU seconds to repeatAt, per execution
	reps := 0
	for k := 0; k < len(seeds) || time.Since(t0) < s.budget; k++ {
		i := k % len(seeds)
		runtime.GC()
		e, err := w.repeat(seeds[i])
		if err != nil {
			s.failf("repetition %d: %v", k, err)
			break
		}
		reps++
		setup = append(setup, e.build.Seconds())
		engine[i] = append(engine[i], e.cpu.Seconds())
		checkCell(s, fmt.Sprintf("repetition %d", k), e.cell)
		if !bytes.Equal(e.atRepeat, captured[i]) {
			s.failf("same-seed repetition of execution %d differs from its first run at %v", i, w.repeatAt)
		}
	}
	s.logf("%d executions of %.0f simulated s, %d same-seed repetitions to %v, %d builds timed",
		len(seeds), simSec, reps, w.repeatAt, len(setup))

	// The executions differ in work (each its own UE drop), so every one
	// weighs the same however many repetitions the budget gave it:
	// cells_per_core is their simulated seconds over the sum of each
	// one's median engine CPU time.
	var engineSum float64
	perExecRates := make([]float64, len(seeds))
	for i, xs := range engine {
		engineSum += median(xs)
		perExecRates[i] = w.repeatAt.Seconds() / median(xs)
	}
	s.logf("rates per execution (cells/core): %s", formatList(perExecRates))

	m := map[string]float64{
		"cells_per_core": float64(len(seeds)) * w.repeatAt.Seconds() / engineSum,
		"setup_s":        median(setup),
		"peak_rss_mb":    float64(deploy.PeakRSSBytes()) / (1 << 20),
		"spectral_eff":   mean(se),
		"fairness":       mean(fair),
	}
	fctMetrics(s, m, metrics.ComputeStats(pool[metrics.Short]), metrics.ComputeStats(pool[metrics.Long]), perExec)
	return m, t
}

// trace runs the first execution of the seed three times over its
// arrival span — untraced, with the phase profiler, and with a
// counting tracer and hooks — and derives the per-layer split. All
// three must produce the same simulated summary.
func (w *cellWorkload) trace(s *session) (map[string]float64, tally) {
	es := w.execSeeds(s.seed)[0]
	end := w.span()
	mid := w.warmup + w.window/2

	// Untraced reference, paused mid-window to copy the MAC users.
	id := s.sp.begin("cell.untraced")
	runtime.GC()
	a, err := start(w.harness(es))
	if err != nil {
		s.failf("build: %v", err)
		return nil, tally{}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	a.runTo(mid)
	users, err := copyUsers(a.cell.Users())
	if err != nil {
		s.failf("%v", err)
		return nil, tally{}
	}
	a.runTo(end)
	runtime.ReadMemStats(&m1)
	ref, _ := summaryJSON(a.cell)
	s.sp.end(id)

	// Phase profile. The CQI-drop hook never drops; it counts UE reports.
	id = s.sp.begin("cell.profiled")
	prof := obs.NewPhaseProfiler()
	var ueReports int
	hp := w.harness(es)
	hp.Setup = func(c *ran.Cell) error {
		c.SetPhaseProfiler(prof)
		c.SetFaultHooks(ran.FaultHooks{DropCQIReport: func(int, sim.Time) bool { ueReports++; return false }})
		return nil
	}
	runtime.GC()
	p, err := start(hp)
	if err != nil {
		s.failf("build: %v", err)
		return nil, tally{}
	}
	p.runTo(end)
	s.sp.end(id)
	sameSummary(s, "profiled run", p.cell, ref)

	// Exact counts from a counting tracer and the delivery/TTI hooks.
	id = s.sp.begin("cell.traced")
	sink := &countSink{}
	var deliveries, allocRBs uint64
	hc := w.harness(es)
	hc.Tracer = obs.NewTracer(sink)
	hc.Setup = func(c *ran.Cell) error {
		c.SetFaultHooks(ran.FaultHooks{
			OnTTI:     func(_ sim.Time, al mac.Allocation) { allocRBs += uint64(al.Allocated()) },
			OnDeliver: func(int, *rlc.SDU) { deliveries++ },
		})
		return nil
	}
	runtime.GC()
	c, err := start(hc)
	if err != nil {
		s.failf("build: %v", err)
		return nil, tally{}
	}
	c.runTo(end)
	s.sp.end(id)
	sameSummary(s, "traced run", c.cell, ref)
	if deliveries != sink.n[obs.EvDeliver] || allocRBs != sink.allocRBs {
		s.failf("hooks saw %d deliveries and %d allocated RBs, the tracer %d and %d",
			deliveries, allocRBs, sink.n[obs.EvDeliver], sink.allocRBs)
	}

	var k cellCounts
	k.addCell(a.cell)
	k.addSink(sink)
	m := phaseMetrics(phaseTotals(prof), p.run, k.ttis, float64(ueReports*len(users[0].SubbandCQI)), k.deliveries)
	k.fill(m)
	m["profile.overhead_frac"] = p.run.Seconds()/a.run.Seconds() - 1
	m["trace.overhead_frac"] = c.run.Seconds()/a.run.Seconds() - 1
	m["sim.ns_per_event"] = float64(a.run.Nanoseconds()) / k.events
	m["alloc.bytes_per_tti"] = float64(m1.TotalAlloc-m0.TotalAlloc) / k.ttis
	m["alloc.objects_per_tti"] = float64(m1.Mallocs-m0.Mallocs) / k.ttis

	id = s.sp.begin("replay.channel")
	m["channel.ns_per_report"] = channelNsPerReport(w.config().WithSeed(es.placement))
	s.sp.end(id)
	id = s.sp.begin("replay.sched")
	schedReplay(s, m, w.config(), mid, users, a.cell.Grid())
	s.sp.end(id)
	id = s.sp.begin("build")
	buildMetrics(s, m, w.harness(es))
	s.sp.end(id)
	for _, k := range []string{"deploy.speedup", "deploy.parallel_eff", "snapshot.bytes_per_cell",
		"snapshot.overhead_frac", "obs.kpi_overhead_frac"} {
		m[k] = 0 // deployment-only metrics: not applicable to one cell
	}
	// Drain the reference untimed so the tally counts finished flows.
	id = s.sp.begin("cell.drain")
	w.drain(a.cell)
	s.sp.end(id)
	checkCell(s, "untraced run", a.cell)
	st := a.cell.CollectStats()
	var t tally
	t.add(st.FlowsStarted, st.FlowsCompleted)
	return m, t
}

// drain runs the cell on from the end of the arrival span until every
// recorded flow has completed.
func (w *cellWorkload) drain(c *ran.Cell) { drainFlows(c, w.span()) }

// drainFlows runs a cell on from time from in drainStep steps until
// every recorded flow has completed, or until drainCap has passed.
func drainFlows(c *ran.Cell, from sim.Time) {
	for end := from; c.FCT.Completed() < c.FCT.Started() && end < from+drainCap; {
		end += drainStep
		c.Run(end)
	}
}

// sameSummary checks that an instrumented run simulated exactly what
// the untraced reference did.
func sameSummary(s *session, label string, c *ran.Cell, ref []byte) {
	checkCell(s, label, c)
	got, err := summaryJSON(c)
	if err != nil || !bytes.Equal(got, ref) {
		s.failf("%s: simulated summary differs from the untraced run", label)
	}
}

// phaseTotals returns a profiler's total ns per phase (none for nil).
func phaseTotals(p *obs.PhaseProfiler) map[string]float64 {
	out := map[string]float64{}
	for name, ns := range p.NsPerTTI() {
		out[name] = ns * float64(p.TTIs())
	}
	return out
}

// phaseMetrics turns total phase times into per-TTI layer times. wall
// is the profiled run's engine time; "other" is what no phase covers:
// event dispatch, transport callbacks and HARQ decode.
func phaseMetrics(phaseNs map[string]float64, wall time.Duration, ttis, ueSubbands, deliveries float64) map[string]float64 {
	m := map[string]float64{}
	wallNs := float64(wall.Nanoseconds())
	sum := 0.0
	for ph := obs.Phase(0); ph < obs.NumPhases; ph++ {
		m[ph.Name()+".us_per_tti"] = phaseNs[ph.Name()] / ttis / 1e3
		sum += phaseNs[ph.Name()]
	}
	m["wall.us_per_tti"] = wallNs / ttis / 1e3
	m["other.us_per_tti"] = (wallNs - sum) / ttis / 1e3
	m["profile.coverage"] = sum / wallNs
	m["phy.ns_per_ue_subband"] = ratio(phaseNs["phy"], ueSubbands)
	m["pdcp.ns_per_sdu"] = ratio(phaseNs["pdcp"], deliveries)
	return m
}

// cellCounts accumulates the exact work counts of one or more cells:
// what the cells report themselves (addCell) and what their counting
// tracers saw (addSink).
type cellCounts struct {
	events, ttis, rbs                float64
	deliveries, allocRBs             float64
	rlcTx, rlcRetx, harqTx, harqRetx float64
	decisions, overrides, sacrifice  float64
	delayShortMs                     float64
	cells                            int
}

func (k *cellCounts) addSink(sink *countSink) {
	k.rlcTx += float64(sink.n[obs.EvRLCTx])
	k.rlcRetx += float64(sink.n[obs.EvRLCRetx])
	k.deliveries += float64(sink.n[obs.EvDeliver])
	k.allocRBs += float64(sink.allocRBs)
}

// addCell folds in one cell's engine and TTI counts, registry
// counters, scheduler audit and queueing delay.
func (k *cellCounts) addCell(c *ran.Cell) {
	k.events += float64(c.Eng.Processed())
	k.ttis += float64(c.CollectStats().TTIs)
	k.rbs = float64(c.Grid().NumRB) // every cell of a workload has the same grid
	k.harqTx += float64(c.Reg.Counter("harq_tx").Value())
	k.harqRetx += float64(c.Reg.Counter("harq_retx").Value())
	if iu, ok := c.Scheduler().(*core.InterUser); ok {
		d, o, sac := iu.Audit()
		k.decisions += float64(d)
		k.overrides += float64(o)
		k.sacrifice += sac
	}
	k.delayShortMs += c.Delay.MeanShort().Milliseconds()
	k.cells++
}

func (k *cellCounts) fill(m map[string]float64) {
	m["sim.events_per_tti"] = k.events / k.ttis
	m["rlc.pdus_per_tti"] = k.rlcTx / k.ttis
	m["rlc.retx_frac"] = ratio(k.rlcRetx, k.rlcTx+k.rlcRetx)
	m["rlc.queue_delay_short_ms"] = k.delayShortMs / float64(k.cells)
	m["pdcp.sdus_per_tti"] = k.deliveries / k.ttis
	m["harq.tx_per_tti"] = k.harqTx / k.ttis
	m["harq.retx_frac"] = ratio(k.harqRetx, k.harqTx)
	m["mac.rb_util"] = ratio(k.allocRBs, k.ttis*k.rbs)
	m["core.override_frac"] = ratio(k.overrides, k.decisions)
	m["core.sacrifice_mean"] = ratio(k.sacrifice, k.decisions)
}

// countSink is an obs.Sink that only counts: events by type, and the
// RBs the scheduler allocated, summed over TTI events.
type countSink struct {
	n        map[string]uint64
	allocRBs uint64
}

func (c *countSink) Emit(ev *obs.Event) {
	if c.n == nil {
		c.n = map[string]uint64{}
	}
	c.n[ev.Type]++
	if ev.Type == obs.EvTTI {
		c.allocRBs += uint64(ev.AllocRBs)
	}
}

func (c *countSink) Close() error { return nil }

// buildMetrics times the two halves of setup separately: cell
// construction (ran.NewCell) and workload generation (Spec.Build plus
// pulling every flow from the source).
func buildMetrics(s *session, m map[string]float64, h ran.Harness) {
	var cellS, wlS []float64
	flows := 0
	for i := 0; i < 5; i++ {
		runtime.GC()
		t := time.Now()
		c, err := ran.NewCell(h.Config)
		if err != nil {
			s.failf("ran.NewCell: %v", err)
			return
		}
		cellS = append(cellS, time.Since(t).Seconds())
		env := workload.Env{NumUEs: c.Config().NumUEs, CapacityBps: c.EffectiveCapacityBps(), Span: h.Warmup + h.Window + h.Tail}
		runtime.GC()
		t = time.Now()
		src, err := c.Config().Workload.Build(env, rng.New(h.WorkloadSeed))
		if err != nil {
			s.failf("workload build: %v", err)
			return
		}
		flows = len(workload.Collect(src))
		wlS = append(wlS, time.Since(t).Seconds())
	}
	m["ran.build_s"] = median(cellS)
	m["workload.build_s"] = median(wlS)
	m["workload.flows"] = float64(flows)
}

// copyUsers deep-copies the MAC users so a replayed Allocate sees the
// mid-run state without aliasing the cell's CQI arrays or the RLC
// buffer-status scratch.
func copyUsers(live []*mac.User) ([]*mac.User, error) {
	out := make([]*mac.User, len(live))
	for i, u := range live {
		c := *u
		c.SubbandCQI = append([]phy.CQI(nil), u.SubbandCQI...)
		c.Buffer.PerPriority = append([]int(nil), u.Buffer.PerPriority...)
		if len(c.Buffer.PerPriority) > 0 && &c.Buffer.PerPriority[0] == &u.Buffer.PerPriority[0] {
			return nil, fmt.Errorf("user %d: copied buffer status aliases the RLC scratch", i)
		}
		out[i] = &c
	}
	return out, nil
}

// formatList lists values in run order with two decimals.
func formatList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.2f", x)
	}
	return strings.Join(parts, " ")
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ltePaper() bench {
	return &cellWorkload{
		name: "lte-paper",
		config: func() ran.Config {
			return ran.DefaultLTEConfig().
				ForScheduler(ran.SchedOutRAN).
				WithWorkload(workload.PoissonSpec("lte", 0.6))
		},
		warmup:      2 * sim.Second,
		window:      60 * sim.Second,
		tail:        2 * sim.Second,
		placements:  8,
		repeatAt:    10 * sim.Second,
		setupBuilds: 7,
	}
}

// nrMixed is the MAC-bound NR cell. It is runnable for attribution but
// not part of BENCHMARK.json: at this load the cell-edge UEs overflow
// their RLC buffers and short-flow tails are set by TCP retransmission
// timeouts, so its FCT metrics swing by multiples between seeds (see
// README.md).
func nrMixed() bench {
	return &cellWorkload{
		name: "nr-mixed",
		config: func() ran.Config {
			spec, _ := workload.Scenario("mixed", "mirage", 0.75)
			cfg := ran.Default5GConfig(phy.Mu1).ForScheduler(ran.SchedOutRAN).WithWorkload(spec)
			cfg.RLC = ran.AM
			return cfg
		},
		warmup:      1 * sim.Second,
		window:      4 * sim.Second,
		tail:        1 * sim.Second,
		placements:  1,
		repeatAt:    2 * sim.Second,
		setupBuilds: 7,
	}
}
