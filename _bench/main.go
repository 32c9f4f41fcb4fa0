// Command outran-bench-suite is the repository benchmark. It runs one
// named workload end to end through the simulator's public APIs,
// checks that the simulated outputs are correct, and prints every
// metric by name with its unit. The last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": 4113, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with all
// instrumentation off. With --trace 1 a separate, instrumented run
// reports the per-layer split, and the spans the benchmark recorded
// around each call are written to --spans when it exits.
//
// Build and run it from the repository root with run.sh; README.md in
// this directory describes the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Seeds recorded for later claims: defaultSeed is what a bare run
// uses, heldOutSeed was not used while tuning the benchmark and is the
// seed a performance claim must also be confirmed on.
const (
	defaultSeed = 1
	heldOutSeed = 20261017
)

// metricDef names one metric and fixes its unit and direction. The
// tables below are the single source of the names BENCHMARK.json
// lists; TestManifestMatches keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

var endToEnd = []metricDef{
	{"cells_per_core", "cells/core", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"fct_short_p50_ms", "ms", "lower"},
	{"fct_short_p99_ms", "ms", "lower"},
	{"fct_long_p50_ms", "ms", "lower"},
	{"spectral_eff", "bit/s/Hz", "higher"},
	{"fairness", "index", "higher"},
}

var perLayer = []metricDef{
	{"wall.us_per_tti", "us", "lower"},
	{"phy.us_per_tti", "us", "lower"},
	{"phy.ns_per_ue_subband", "ns", "lower"},
	{"mac.us_per_tti", "us", "lower"},
	{"rlc.us_per_tti", "us", "lower"},
	{"pdcp.us_per_tti", "us", "lower"},
	{"obs.us_per_tti", "us", "lower"},
	{"other.us_per_tti", "us", "lower"},
	{"profile.coverage", "ratio", "higher"},
	{"profile.overhead_frac", "ratio", "lower"},
	{"channel.ns_per_report", "ns", "lower"},
	{"sched.pf_ns_per_allocate", "ns", "lower"},
	{"sched.outran_ns_per_allocate", "ns", "lower"},
	{"sim.events_per_tti", "count", "lower"},
	{"sim.ns_per_event", "ns", "lower"},
	{"alloc.bytes_per_tti", "B", "lower"},
	{"alloc.objects_per_tti", "count", "lower"},
	{"rlc.pdus_per_tti", "count", "lower"},
	{"rlc.retx_frac", "ratio", "lower"},
	{"rlc.queue_delay_short_ms", "ms", "lower"},
	{"pdcp.ns_per_sdu", "ns", "lower"},
	{"pdcp.sdus_per_tti", "count", "higher"},
	{"harq.tx_per_tti", "count", "lower"},
	{"harq.retx_frac", "ratio", "lower"},
	{"mac.rb_util", "ratio", "higher"},
	{"core.override_frac", "ratio", "lower"},
	{"core.sacrifice_mean", "ratio", "lower"},
	{"workload.build_s", "s", "lower"},
	{"workload.flows", "count", "lower"},
	{"ran.build_s", "s", "lower"},
	{"deploy.speedup", "x", "higher"},
	{"deploy.parallel_eff", "ratio", "higher"},
	{"snapshot.bytes_per_cell", "B", "lower"},
	{"snapshot.overhead_frac", "ratio", "lower"},
	{"obs.kpi_overhead_frac", "ratio", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

// bench is one named benchmark workload. measure runs it untraced
// for about the session's budget and returns the end-to-end metrics;
// trace runs the instrumented variant and returns the per-layer
// metrics.
type bench interface {
	Name() string
	measure(s *session) (map[string]float64, tally)
	trace(s *session) (map[string]float64, tally)
}

// tally counts flows: attempted ones were started inside a measured
// window, failed ones had not completed when the run ended.
type tally struct{ attempted, failed int }

func (t *tally) add(started, completed int) {
	t.attempted += started
	t.failed += started - completed
}

// benches lists the workloads in BENCHMARK.json order; attribution-only
// workloads follow them.
func benches() []bench {
	return []bench{ltePaper(), metroDiurnal(), nrMixed()}
}

// attributionOnly names the workloads BENCHMARK.json leaves out.
var attributionOnly = map[string]bool{"nr-mixed": true}

// session is one invocation: its seed and budget, where notes go, the
// span recorder (nil when untraced) and the correctness failures found
// so far. Any failure makes the run report "correct": false and exit
// non-zero.
type session struct {
	seed     uint64
	budget   time.Duration
	log      io.Writer
	sp       *spans
	failures []string
}

func (s *session) failf(format string, args ...any) {
	s.failures = append(s.failures, fmt.Sprintf(format, args...))
}

func (s *session) logf(format string, args ...any) { fmt.Fprintf(s.log, format+"\n", args...) }

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("outran-bench-suite", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", defaultSeed, "seed the workload's inputs derive from")
	seconds := fs.Int("seconds", 30, "measurement budget in wall seconds")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from instrumented runs")
	spanDir := fs.String("spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w bench
	for _, c := range benches() {
		if c.Name() == *name {
			w = c
		}
	}
	switch {
	case w == nil:
		fmt.Fprintf(stderr, "unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	case *traceMode != 0 && *traceMode != 1:
		fmt.Fprintf(stderr, "--trace must be 0 or 1, got %d\n", *traceMode)
		return 2
	case *seconds < 1:
		fmt.Fprintf(stderr, "--seconds must be at least 1, got %d\n", *seconds)
		return 2
	}

	sess := &session{seed: *seed, budget: time.Duration(*seconds) * time.Second, log: stdout}
	var vals map[string]float64
	var t tally
	defs := endToEnd
	if *traceMode == 0 {
		vals, t = w.measure(sess)
	} else {
		defs = perLayer
		sess.sp = newSpans()
		vals, t = w.trace(sess)
		sess.sp.printSelfTimes(stdout)
		path := filepath.Join(*spanDir, fmt.Sprintf("%s-seed%d.json", w.Name(), *seed))
		if err := sess.sp.write(path, w.Name(), *seed); err != nil {
			sess.failf("writing spans: %v", err)
		}
	}

	rep := report{Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			sess.failf("metric %s was not measured", d.Name)
			continue
		}
		rep.Metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
		fmt.Fprintf(stdout, "%-30s %14.6g %s\n", d.Name, v, d.Unit)
	}
	if rep.Attempted < 1 {
		sess.failf("no flows were attempted")
		rep.Attempted = 1
	}
	for _, f := range sess.failures {
		fmt.Fprintln(stderr, "CHECK FAILED:", f)
	}
	rep.Correct = len(sess.failures) == 0
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range benches() {
		out = append(out, w.Name())
	}
	return out
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio returns a/b, or 0 when b is zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
