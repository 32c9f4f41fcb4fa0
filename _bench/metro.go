package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"outran/internal/deploy"
	"outran/internal/mac"
	"outran/internal/metrics"
	"outran/internal/obs"
	"outran/internal/ran"
	"outran/internal/rng"
	"outran/internal/sim"
	"outran/internal/workload"
)

// scratchDir holds the deployment's KPI streams and checkpoints while
// a run needs them; every run removes what it created.
var scratchDir = filepath.Join(".bench_build", "tmp")

// metroWorkload is a multi-cell deployment run through deploy.Run.
type metroWorkload struct {
	name                  string
	cells, ues, rbs       int
	warmup, window, drain sim.Time
	kpiEvery, ckptEvery   sim.Time
	// days is the number of diurnal cycles in the arrival span, depth
	// their swing around the mean load.
	days  int
	depth float64
	// deployments is how many deployments one run pools; their master
	// seeds derive from --seed.
	deployments int
	setupBuilds int
}

func metroDiurnal() bench {
	return &metroWorkload{
		name:        "metro-diurnal",
		cells:       16,
		ues:         12,
		rbs:         100,
		warmup:      500 * sim.Millisecond,
		window:      10 * sim.Second,
		drain:       2 * sim.Second,
		days:        4,
		depth:       0.5,
		kpiEvery:    250 * sim.Millisecond,
		ckptEvery:   1 * sim.Second,
		deployments: 4,
		setupBuilds: 15,
	}
}

func (w *metroWorkload) Name() string { return w.name }

func (w *metroWorkload) horizon() sim.Time { return w.warmup + w.window + w.drain }

func (w *metroWorkload) cellConfig() ran.Config {
	// Load 0.5, a swing of half the mean and several compressed days per
	// run keep the short-flow tail repeatable. At 0.6 and the default
	// swing the busy hour offers 1.08x a cell's capacity, RLC buffers
	// overflow, and the p99 sits on the 200 ms minimum RTO. With one day
	// per run the whole window's tail rides on a single busy hour per
	// cell. 100-RB cells give about twice the flows per CPU second of
	// 25-RB ones, and the tail quantiles need the samples.
	spec, _ := workload.Scenario("diurnal", "lte", 0.5)
	spec.Envelope.Period = (w.warmup + w.window) / sim.Time(w.days)
	spec.Envelope.Depth = w.depth
	cfg := ran.DefaultLTEConfig().
		WithTopology(w.ues, w.rbs).
		ForScheduler(ran.SchedOutRAN).
		WithWorkload(spec)
	cfg.KPIEvery = w.kpiEvery
	return cfg
}

// metroOpts selects the optional parts of a deployment run.
type metroOpts struct {
	workers    int
	kpi, ckpt  bool
	sinks      []*countSink // per-cell counting tracers; nil = untraced
	noteMemory bool         // record MemStats around the run
}

// metroRun is one finished deployment with its wall time.
type metroRun struct {
	res  *deploy.Result
	wall time.Duration
	mem  [2]runtime.MemStats
}

// deploy runs one deployment; KPI streams and checkpoints go to a
// fresh scratch directory that is removed afterwards.
func (w *metroWorkload) deploy(seed uint64, o metroOpts) (*metroRun, error) {
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratchDir, "metro-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	dc := deploy.Config{
		Cells:   w.cells,
		Workers: o.workers,
		Cell:    w.cellConfig(),
		Warmup:  w.warmup,
		Window:  w.window,
		Drain:   w.drain,
		Seed:    seed,
	}
	if o.kpi {
		dc.KPIPath = filepath.Join(dir, "kpi.jsonl")
	} else {
		dc.Cell.KPIEvery = 0
	}
	if o.ckpt {
		dc.Checkpoint = deploy.CheckpointConfig{Dir: filepath.Join(dir, "ckpt"), Every: w.ckptEvery}
	}
	if o.sinks != nil {
		dc.TracerFor = func(i int) *obs.Tracer { return obs.NewTracer(o.sinks[i]) }
	}
	r := &metroRun{}
	runtime.GC()
	if o.noteMemory {
		runtime.ReadMemStats(&r.mem[0])
	}
	t := time.Now()
	r.res, err = deploy.Run(dc)
	r.wall = time.Since(t)
	if o.noteMemory {
		runtime.ReadMemStats(&r.mem[1])
	}
	return r, err
}

// harnesses derives the deployment's per-cell harnesses the way
// deploy.Run does: cell seeds drawn in cell order from one master
// stream, streaming FCT, and the snapshot registry on because the
// workload checkpoints. The traced run checks the derivation by
// comparing standalone results with the deployment's.
func (w *metroWorkload) harnesses(seed uint64) []ran.Harness {
	master := rng.New(seed)
	hs := make([]ran.Harness, w.cells)
	for i := range hs {
		cfg := w.cellConfig().WithSeed(master.Uint64())
		cfg.StreamFCT = true
		hs[i] = ran.Harness{Config: cfg, Warmup: w.warmup, Window: w.window, Drain: w.drain, Snapshots: true}
	}
	return hs
}

// build constructs every cell of the deployment on the worker pool,
// as deploy.Run does before its first event, and times it.
func (w *metroWorkload) build(hs []ran.Harness, workers int) ([]*ran.Cell, time.Duration, error) {
	cells := make([]*ran.Cell, len(hs))
	runtime.GC()
	t := time.Now()
	err := deploy.ForEach(len(hs), workers, func(i int) error {
		var err error
		cells[i], err = hs[i].Build()
		return err
	})
	return cells, time.Since(t), err
}

// masterSeeds derives the run's deployment seeds from --seed.
func (w *metroWorkload) masterSeeds(seed uint64) []uint64 {
	r := rng.New(seed ^ 0x6d6574726f) // "metro": keep apart from the cell workloads' streams
	out := make([]uint64, w.deployments)
	for i := range out {
		if out[i] = r.Uint64(); out[i] == 0 {
			out[i] = 1
		}
	}
	return out
}

// finish drives the deployment's cells on past its horizon, untimed,
// until every measured flow has completed. deploy.Run's horizon is
// fixed; a few long flows of the diurnal peak outlast any drain short
// enough to keep the run affordable. Their FCTs count like any other.
// The cells are independent, so they drain on the worker pool.
func (w *metroWorkload) finish(res *deploy.Result, workers int) {
	deploy.ForEach(len(res.Live), workers, func(i int) error {
		drainFlows(res.Live[i], w.horizon())
		return nil
	})
}

// checkDeploy applies the per-cell checks to every cell of a result.
func checkDeploy(s *session, label string, res *deploy.Result) {
	for i, c := range res.Live {
		checkCell(s, fmt.Sprintf("%s cell %d", label, i), c)
	}
}

// aggregateJSON is the deployment aggregate plus each cell's counters
// and FCT statistics: the results that must not depend on worker
// count, KPI sampling, checkpointing or tracing. (Per-cell registry
// exports legitimately differ: checkpointing adds instruments.)
func aggregateJSON(res *deploy.Result) []byte {
	out := struct {
		Aggregate deploy.Summary
		Cells     [][]byte
	}{Aggregate: res.Aggregate}
	for _, c := range res.Cells {
		out.Cells = append(out.Cells, cellJSON(c.Summary))
	}
	b, _ := json.Marshal(out)
	return b
}

// cellJSON is one cell's counters and FCT statistics.
func cellJSON(s metrics.RunSummary) []byte {
	b, _ := json.Marshal([]any{s.Counters, s.FCTOverall, s.FCTShort, s.FCTMedium, s.FCTLong})
	return b
}

func (w *metroWorkload) measure(s *session) (map[string]float64, tally) {
	t0 := time.Now()
	workers := runtime.GOMAXPROCS(0)
	seeds := w.masterSeeds(s.seed)
	var setup []float64
	for i := 0; i < w.setupBuilds; i++ {
		_, d, err := w.build(w.harnesses(seeds[i%len(seeds)]), workers)
		if err != nil {
			s.failf("build: %v", err)
			return nil, tally{}
		}
		setup = append(setup, d.Seconds())
	}

	agg := metrics.NewStreamingFCTRecorder()
	var rates, se, fair []float64
	var perDeploy []metrics.Stats
	var t tally
	captured := make([][][]byte, len(seeds))
	for k, seed := range seeds {
		r, err := w.deploy(seed, metroOpts{workers: workers, kpi: true, ckpt: true})
		if err != nil {
			s.failf("deployment %d: %v", k, err)
			return nil, t
		}
		rates = append(rates, float64(w.cells)*w.horizon().Seconds()/(r.wall.Seconds()*float64(workers)))
		for _, c := range r.res.Cells {
			captured[k] = append(captured[k], cellJSON(c.Summary))
		}
		w.finish(r.res, workers)
		checkDeploy(s, fmt.Sprintf("deployment %d", k), r.res)
		own := metrics.NewStreamingFCTRecorder()
		for _, c := range r.res.Live {
			for _, into := range []*metrics.FCTRecorder{agg, own} {
				if err := into.Stream().Merge(c.FCT.Stream()); err != nil {
					s.failf("merging FCT streams: %v", err)
				}
			}
			st := c.CollectStats()
			t.add(st.FlowsStarted, st.FlowsCompleted)
		}
		perDeploy = append(perDeploy, own.ByClass(metrics.Short))
		a := r.res.Aggregate.Counters
		se = append(se, a.MeanSpectralEff)
		fair = append(fair, a.MeanFairnessIndex)
	}
	// Same-seed repetitions, one cell at a time: cell i of deployment k
	// is rebuilt standalone and must reproduce its counters and FCT
	// statistics from inside the deployment. At least one runs; more
	// fill the budget. (The traced run repeats whole deployments.)
	reps := 0
	for k := 0; k == 0 || time.Since(t0) < s.budget; k++ {
		d, i := (k/w.cells)%len(seeds), k%w.cells
		h := w.harnesses(seeds[d])[i]
		c, err := h.Build()
		if err != nil {
			s.failf("repetition %d: %v", k, err)
			break
		}
		c.Run(h.Total())
		reps++
		label := fmt.Sprintf("repetition of deployment %d cell %d", d, i)
		checkCell(s, label, c)
		if !bytes.Equal(cellJSON(c.Summary()), captured[d][i]) {
			s.failf("%s: results differ from the same cell inside the deployment", label)
		}
	}
	s.logf("%d deployments of %d cells x %v on %d workers, %d single-cell same-seed repetitions, %d builds timed",
		len(seeds), w.cells, w.horizon(), workers, reps, len(setup))

	m := map[string]float64{
		"cells_per_core": median(rates),
		"setup_s":        median(setup),
		"peak_rss_mb":    float64(deploy.PeakRSSBytes()) / (1 << 20),
		"spectral_eff":   mean(se),
		"fairness":       mean(fair),
	}
	fctMetrics(s, m, agg.ByClass(metrics.Short), agg.ByClass(metrics.Long), perDeploy)
	return m, t
}

// trace runs the first deployment of the seed in several variants —
// as defined, on one worker, without checkpoints, without KPI
// sampling, with counting tracers — then its cells standalone with and
// without the phase profiler. Every variant must simulate the same
// results; their wall-time ratios are the per-layer overheads.
func (w *metroWorkload) trace(s *session) (map[string]float64, tally) {
	workers := runtime.GOMAXPROCS(0)
	seed := w.masterSeeds(s.seed)[0]
	m := map[string]float64{}

	variant := func(name string, o metroOpts) *metroRun {
		id := s.sp.begin("deploy." + name)
		defer s.sp.end(id)
		r, err := w.deploy(seed, o)
		if err != nil {
			s.failf("%s deployment: %v", name, err)
			return nil
		}
		checkDeploy(s, name, r.res)
		return r
	}
	a := variant("defined", metroOpts{workers: workers, kpi: true, ckpt: true, noteMemory: true})
	if a == nil {
		return nil, tally{}
	}
	ref := aggregateJSON(a.res)
	sinks := make([]*countSink, w.cells)
	for i := range sinks {
		sinks[i] = &countSink{}
	}
	others := map[string]*metroRun{
		"one_worker": variant("one_worker", metroOpts{workers: 1, kpi: true, ckpt: true}),
		"no_ckpt":    variant("no_ckpt", metroOpts{workers: workers, kpi: true}),
		"no_kpi":     variant("no_kpi", metroOpts{workers: workers}),
		"traced":     variant("traced", metroOpts{workers: workers, kpi: true, sinks: sinks}),
	}
	for name, r := range others {
		if r == nil {
			return nil, tally{}
		}
		if !bytes.Equal(aggregateJSON(r.res), ref) {
			s.failf("%s deployment: results differ from the deployment as defined", name)
		}
	}
	speedup := others["one_worker"].wall.Seconds() / a.wall.Seconds()
	m["deploy.speedup"] = speedup
	m["deploy.parallel_eff"] = speedup / float64(workers)
	m["snapshot.overhead_frac"] = a.wall.Seconds()/others["no_ckpt"].wall.Seconds() - 1
	m["obs.kpi_overhead_frac"] = others["no_ckpt"].wall.Seconds()/others["no_kpi"].wall.Seconds() - 1
	m["trace.overhead_frac"] = others["traced"].wall.Seconds()/others["no_ckpt"].wall.Seconds() - 1

	var k cellCounts
	ckptBytes := 0.0
	for i, c := range a.res.Live {
		k.addCell(c)
		k.addSink(sinks[i])
		ckptBytes += c.Reg.Gauge("checkpoint_bytes").Value()
	}
	k.fill(m)
	m["snapshot.bytes_per_cell"] = ckptBytes / float64(w.cells)
	m["alloc.bytes_per_tti"] = float64(a.mem[1].TotalAlloc-a.mem[0].TotalAlloc) / k.ttis
	m["alloc.objects_per_tti"] = float64(a.mem[1].Mallocs-a.mem[0].Mallocs) / k.ttis

	// Standalone cells: the phase split, and the cross-check that the
	// benchmark derives the cells exactly as the deployment does.
	hs := w.harnesses(seed)
	plain := w.standalone(s, "cells.plain", hs, workers, a.res, false)
	prof := w.standalone(s, "cells.profiled", hs, workers, a.res, true)
	if plain == nil || prof == nil {
		return nil, tally{}
	}
	for name, v := range phaseMetrics(prof.phaseNs, prof.wall, k.ttis, prof.ueReports*float64(len(prof.users[0].SubbandCQI)), k.deliveries) {
		m[name] = v
	}
	m["profile.overhead_frac"] = prof.wall.Seconds()/plain.wall.Seconds() - 1
	m["sim.ns_per_event"] = float64(plain.wall.Nanoseconds()) / k.events

	id := s.sp.begin("replay.channel")
	m["channel.ns_per_report"] = channelNsPerReport(hs[0].Config)
	s.sp.end(id)
	id = s.sp.begin("replay.sched")
	schedReplay(s, m, hs[0].Config, w.warmup+w.window/2, prof.users, a.res.Live[0].Grid())
	s.sp.end(id)
	id = s.sp.begin("build")
	buildMetrics(s, m, hs[0])
	s.sp.end(id)

	id = s.sp.begin("deploy.finish")
	w.finish(a.res, workers)
	s.sp.end(id)
	var t tally
	for _, c := range a.res.Live {
		checkCell(s, "finished deployment", c)
		st := c.CollectStats()
		t.add(st.FlowsStarted, st.FlowsCompleted)
	}
	return m, t
}

// standaloneRun is the deployment's cells run one by one outside
// deploy.Run, on the same worker pool.
type standaloneRun struct {
	wall      time.Duration      // summed per-cell engine time
	phaseNs   map[string]float64 // summed per-cell phase time; empty unprofiled
	ueReports float64
	users     []*mac.User // cell 0's MAC users, copied mid-window
}

// standalone runs the deployment's cells outside deploy.Run, paused
// mid-window to copy cell 0's MAC users, and checks that each cell
// simulates exactly what it did inside the deployment.
func (w *metroWorkload) standalone(s *session, label string, hs []ran.Harness, workers int, ref *deploy.Result, profiled bool) *standaloneRun {
	id := s.sp.begin(label)
	defer s.sp.end(id)
	n := len(hs)
	cells := make([]*ran.Cell, n)
	walls := make([]time.Duration, n)
	profs := make([]*obs.PhaseProfiler, n)
	reports := make([]int, n)
	out := &standaloneRun{}
	var usersErr error
	err := deploy.ForEach(n, workers, func(i int) error {
		h := hs[i]
		if profiled {
			profs[i] = obs.NewPhaseProfiler()
			h.Setup = func(c *ran.Cell) error {
				c.SetPhaseProfiler(profs[i])
				c.SetFaultHooks(ran.FaultHooks{DropCQIReport: func(int, sim.Time) bool { reports[i]++; return false }})
				return nil
			}
		}
		c, err := h.Build()
		if err != nil {
			return err
		}
		t := time.Now()
		c.Run(w.warmup + w.window/2)
		walls[i] = time.Since(t)
		if i == 0 {
			out.users, usersErr = copyUsers(c.Users())
		}
		t = time.Now()
		c.Run(h.Total())
		walls[i] += time.Since(t)
		cells[i] = c
		return nil
	})
	if err == nil {
		err = usersErr
	}
	if err != nil {
		s.failf("%s: %v", label, err)
		return nil
	}
	totals := map[string]float64{}
	for i, c := range cells {
		checkCell(s, fmt.Sprintf("%s cell %d", label, i), c)
		if !bytes.Equal(cellJSON(c.Summary()), cellJSON(ref.Cells[i].Summary)) {
			s.failf("%s cell %d: results differ from the same cell inside the deployment", label, i)
		}
		out.wall += walls[i]
		out.ueReports += float64(reports[i])
		for ph, ns := range phaseTotals(profs[i]) {
			totals[ph] += ns
		}
	}
	out.phaseNs = totals
	return out
}
