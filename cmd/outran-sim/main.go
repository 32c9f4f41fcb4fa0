// Command outran-sim runs a downlink simulation with the chosen
// scheduler and prints the FCT / spectral-efficiency / fairness
// summary — the quickest way to poke at the system. Every run goes
// through the deployment runtime (deploy.Run, or deploy.Resume with
// -resume): the default is a one-cell deployment, which is exactly the
// classic single-cell run. With -cells N it executes N cells across a
// bounded worker pool (-parallel), optionally with a scripted §7
// inter-cell handover.
//
// Example:
//
//	outran-sim -sched OutRAN -load 0.6 -ues 20 -rbs 50 -dur 8s
//	outran-sim -sched PF -load 0.8 -dist websearch -numerology 1
//	outran-sim -sched OutRAN -trace run.jsonl -json > summary.json
//	outran-sim -cells 4 -parallel 4 -json
//	outran-sim -cells 2 -handover 3s -v
//	outran-sim -workload diurnal -trace-out w.jsonl
//	outran-sim -workload-trace w.jsonl   # byte-identical replay
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"outran/internal/deploy"
	"outran/internal/metrics"
	"outran/internal/phy"
	"outran/internal/ran"
	"outran/internal/sim"
	"outran/internal/workload"
)

// drain is the post-arrival run time that lets in-flight flows finish.
const drain = 12 * sim.Second

func main() {
	sched := flag.String("sched", "OutRAN", "scheduler: PF MT RR SRJF PSS CQA OutRAN StrictMLFQ")
	load := flag.Float64("load", 0.6, "offered cell load (fraction of capacity)")
	ues := flag.Int("ues", 20, "number of UEs per cell")
	rbs := flag.Int("rbs", 50, "resource blocks")
	durFlag := flag.Duration("dur", 0, "arrival window (default 8s)")
	distName := flag.String("dist", "lte", "flow size distribution: lte | mirage | websearch")
	workloadName := flag.String("workload", "", "workload scenario: "+strings.Join(workload.ScenarioNames(), " | ")+" (default: steady poisson from -dist/-load)")
	traceOut := flag.String("trace-out", "", "record the generated workload to this JSONL trace (per cell with -cells: name.cellN.ext); replay with -workload-trace")
	workloadTrace := flag.String("workload-trace", "", "replay a workload trace recorded with -trace-out instead of generating arrivals (per cell with -cells)")
	eps := flag.Float64("eps", 0.2, "OutRAN relaxation threshold")
	mu := flag.Int("numerology", 0, "5G numerology 0-3 (0 = LTE grid)")
	am := flag.Bool("am", false, "use RLC AM instead of UM")
	seed := flag.Uint64("seed", 1, "simulation seed (multi-cell: deployment master seed)")
	cells := flag.Int("cells", 1, "number of cells (multi-cell deployment runtime)")
	parallel := flag.Int("parallel", 0, "max cells executing concurrently (0 = GOMAXPROCS); never changes results")
	handover := flag.Duration("handover", 0, "with -cells >= 2: migrate UE 0 from cell 0 to cell 1 at this sim time (§7 flow-state transfer)")
	ckEvery := flag.Duration("checkpoint-every", 0, "checkpoint every cell's full state at this sim-time cadence (0 = off)")
	ckDir := flag.String("checkpoint-dir", "outran-ckpt", "checkpoint directory (with -checkpoint-every / -resume)")
	resume := flag.Bool("resume", false, "resume a killed checkpointed run from -checkpoint-dir (pass the SAME flags as the original run)")
	tracePath := flag.String("trace", "", "write a JSONL event trace to this file (per cell with -cells: name.cellN.ext)")
	kpiEvery := flag.Duration("kpi-every", 0, "sample per-cell KPI records at this sim-time cadence (0 = off)")
	kpiPath := flag.String("kpi", "", "write the KPI time-series JSONL to this file (needs -kpi-every; read with outran-trace kpi or outran-top)")
	profileRun := flag.Bool("profile", false, "attribute wall ns/TTI to phy/mac/rlc/pdcp/obs phases (shown in the summary, never in byte-compared outputs)")
	fctMode := flag.String("fct", "", "FCT recorder: exact (per-flow samples, capped per cell) | stream (bounded-memory histograms); default exact for one cell, stream for several")
	jsonOut := flag.Bool("json", false, "print the run summary as JSON instead of text")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	if _, ok := workload.ByName(*distName); !ok {
		fmt.Fprintf(os.Stderr, "unknown distribution %q\n", *distName)
		os.Exit(2)
	}
	var base ran.Config
	if *mu > 0 {
		base = ran.Default5GConfig(phy.Numerology(*mu))
	} else {
		base = ran.DefaultLTEConfig()
	}
	cfg := base.
		WithTopology(*ues, *rbs).
		ForScheduler(ran.SchedulerKind(*sched)).
		WithSeed(*seed)
	cfg.OutRAN.Epsilon = *eps
	if *am {
		cfg.RLC = ran.AM
	}
	cfg.KPIEvery = sim.Time(*kpiEvery)

	// The workload rides on the config: a scenario spec, a plain Poisson
	// spec, or a trace replay. The harness pulls from the built Source.
	var spec workload.Spec
	var wlDesc string
	switch {
	case *workloadTrace != "":
		if *workloadName != "" {
			fatal(fmt.Errorf("-workload-trace and -workload are mutually exclusive (the trace fixes the workload)"))
		}
		spec = workload.ReplaySpec(*workloadTrace)
		wlDesc = "trace:" + filepath.Base(*workloadTrace)
	case *workloadName != "":
		var ok bool
		spec, ok = workload.Scenario(*workloadName, *distName, *load)
		if !ok {
			fatal(fmt.Errorf("unknown workload scenario %q (have: %s)", *workloadName, strings.Join(workload.ScenarioNames(), " ")))
		}
		wlDesc = *workloadName + "/" + *distName
	default:
		spec = workload.PoissonSpec(*distName, *load)
		wlDesc = "poisson/" + *distName
	}
	cfg = cfg.WithWorkload(spec)

	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		fatal(err)
	}
	if *kpiPath != "" && *kpiEvery <= 0 {
		fatal(fmt.Errorf("-kpi needs -kpi-every > 0"))
	}
	dur := sim.Time(*durFlag)
	if dur <= 0 {
		dur = 8 * sim.Second
	}

	ckcfg := deploy.CheckpointConfig{Every: sim.Time(*ckEvery)}
	if *ckEvery > 0 || *resume {
		ckcfg.Dir = *ckDir
	}
	single := *cells <= 1
	dcfg := deploy.Config{
		Cells:      *cells,
		Workers:    *parallel,
		Cell:       cfg,
		Window:     dur,
		Drain:      drain,
		Seed:       cfg.Seed,
		Checkpoint: ckcfg,
		KPIPath:    *kpiPath,
		Profile:    *profileRun,
	}
	switch *fctMode {
	case "":
		// One cell keeps every sample; deployments stream by default.
		dcfg.ExactFCT = single
	case "exact", "stream":
		dcfg.ExactFCT = *fctMode == "exact"
	default:
		fatal(fmt.Errorf("unknown -fct mode %q (have: exact stream)", *fctMode))
	}
	dcfg.TracePathFor = cellPaths(*tracePath, single)
	dcfg.WorkloadTracePathFor = cellPaths(*traceOut, single)
	if replay := cellPaths(*workloadTrace, single); replay != nil {
		// Each cell replays its own trace file, the one -trace-out wrote
		// for it.
		dcfg.PerCell = func(i int, c ran.Config) ran.Config {
			return c.WithWorkload(workload.ReplaySpec(replay(i)))
		}
	}
	if *handover > 0 {
		dcfg.Handovers = []deploy.Handover{{
			At: sim.Time(*handover), UE: 0, From: 0, To: 1, ContinueBytes: 256 << 10,
		}}
		if ckcfg.Enabled() {
			// A checkpoint cannot serialise the continuation's live
			// connection; transfer the §7 flow state only.
			dcfg.Handovers[0].ContinueBytes = 0
			fmt.Fprintln(os.Stderr, "note: -checkpoint-every disables the handover continuation flow (flow-state transfer still happens)")
		}
	}
	run := deploy.Run
	if *resume {
		run = deploy.Resume
	}
	res, err := run(dcfg)
	if err != nil {
		fatal(err)
	}
	switch {
	case *jsonOut && single:
		printJSON(res.Cells[0].Summary)
	case *jsonOut:
		printJSON(res)
	case single:
		printSummary(res.Live[0], cfg, *load, wlDesc)
	default:
		printDeployment(res, cfg, *load, wlDesc)
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}
}

// cellPaths maps a user-given file path to the deployment's per-cell
// paths: the path itself for one cell, run.jsonl -> run.cellN.jsonl for
// several, nil when the path is empty.
func cellPaths(path string, single bool) func(int) string {
	switch {
	case path == "":
		return nil
	case single:
		return func(int) string { return path }
	}
	ext := filepath.Ext(path)
	stem := strings.TrimSuffix(path, ext)
	return func(i int) string { return fmt.Sprintf("%s.cell%d%s", stem, i, ext) }
}

func printJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fatal(err)
	}
}

func printDeployment(res *deploy.Result, cfg ran.Config, load float64, distName string) {
	agg := res.Aggregate
	fmt.Printf("deployment     %d cells (sched %s, RLC %v, %d UEs/cell, %d RBs, load %.2f, dist %s, seed %d)\n",
		agg.Cells, cfg.Scheduler, cfg.RLC, cfg.NumUEs, cfg.Grid.NumRB, load, distName, agg.Seed)
	for _, c := range res.Cells {
		s := c.Summary
		fmt.Printf("  cell %-2d seed %-20d flows %4d/%-4d  FCT mean %8.1fms p95 %8.1fms  SE %.3f  fair %.3f\n",
			c.Cell, s.Seed, s.Counters.FlowsStarted, s.Counters.FlowsCompleted,
			s.FCTOverall.Mean.Milliseconds(), s.FCTOverall.P95.Milliseconds(),
			s.Counters.MeanSpectralEff, s.Counters.MeanFairnessIndex)
	}
	if agg.HandoversApplied > 0 {
		fmt.Printf("handovers      %d applied, %d flows transferred (%d B of §7 flow state)\n",
			agg.HandoversApplied, agg.FlowsTransferred, agg.FlowsTransferred*41)
	}
	fmt.Printf("flows          %d started, %d completed\n", agg.Counters.FlowsStarted, agg.Counters.FlowsCompleted)
	printStats("FCT overall", agg.FCTOverall)
	printStats("FCT short", agg.FCTShort)
	printStats("FCT medium", agg.FCTMedium)
	printStats("FCT long", agg.FCTLong)
	fmt.Printf("spectral eff   %.3f bit/s/Hz (mean over cells)\n", agg.Counters.MeanSpectralEff)
	fmt.Printf("fairness       %.3f (Jain, eq. 3, mean over cells)\n", agg.Counters.MeanFairnessIndex)
	mean := map[string]float64{}
	for _, c := range res.Cells {
		for name, ns := range c.Summary.Phases {
			mean[name] += ns / float64(len(res.Cells))
		}
	}
	printPhases(mean, " (mean over cells)")
}

func printSummary(cell *ran.Cell, cfg ran.Config, load float64, distName string) {
	st := cell.CollectStats()
	fmt.Printf("scheduler      %s (RLC %v, %d UEs, %d RBs, load %.2f, dist %s)\n",
		cell.Scheduler().Name(), cfg.RLC, cfg.NumUEs, cfg.Grid.NumRB, load, distName)
	fmt.Printf("flows          %d started, %d completed\n", st.FlowsStarted, st.FlowsCompleted)
	printStats("FCT overall", cell.FCT.Overall())
	printStats("FCT short", cell.FCT.ByClass(metrics.Short))
	printStats("FCT medium", cell.FCT.ByClass(metrics.Medium))
	printStats("FCT long", cell.FCT.ByClass(metrics.Long))
	fmt.Printf("spectral eff   %.3f bit/s/Hz\n", st.MeanSpectralEff)
	fmt.Printf("fairness       %.3f (Jain, eq. 3)\n", st.MeanFairnessIndex)
	fmt.Printf("queue delay    %.2fms avg, %.2fms short flows\n",
		cell.Delay.Mean().Milliseconds(), cell.Delay.MeanShort().Milliseconds())
	fmt.Printf("mean SRTT      %.1fms\n", st.MeanSRTT.Milliseconds())
	fmt.Printf("losses         %d buffer drops, %d HARQ failures, %d reassembly discards, %d decipher failures\n",
		st.BufferDrops, st.HARQFailures, st.ReassemblyDrops, st.DecipherFailures)
	printPhases(cell.PhaseProfiler().NsPerTTI(), "")
}

// printStats prints one FCT distribution line.
func printStats(label string, s metrics.Stats) {
	fmt.Printf("%-14s mean %8.1fms  p50 %8.1fms  p95 %8.1fms  p99 %8.1fms  (n=%d)\n",
		label, s.Mean.Milliseconds(), s.P50.Milliseconds(),
		s.P95.Milliseconds(), s.P99.Milliseconds(), s.Count)
}

// printPhases prints the -profile line; nothing when profiling is off.
func printPhases(phases map[string]float64, note string) {
	if len(phases) == 0 {
		return
	}
	names := make([]string, 0, len(phases))
	for name := range phases {
		names = append(names, name)
	}
	sort.Strings(names)
	var total float64
	for _, name := range names {
		total += phases[name]
	}
	fmt.Printf("phase profile  %.0f ns/TTI instrumented%s", total, note)
	for _, name := range names {
		fmt.Printf("  %s %.0f", name, phases[name])
	}
	fmt.Println()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
