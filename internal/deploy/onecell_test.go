package deploy_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"outran/internal/deploy"
	"outran/internal/metrics"
	"outran/internal/obs"
	"outran/internal/ran"
	"outran/internal/sim"
	"outran/internal/workload"
)

// oneCellOutputs is what a single-cell run leaves behind: the JSON
// summary, the event trace and the KPI stream.
type oneCellOutputs struct {
	summary, trace, kpi []byte
}

const (
	oneCellWindow = 400 * sim.Millisecond
	oneCellDrain  = 300 * sim.Millisecond
)

func oneCellConfig() ran.Config {
	cfg := ran.DefaultLTEConfig().
		WithTopology(4, 15).
		ForScheduler(ran.SchedOutRAN).
		WithSeed(7).
		WithWorkload(workload.PoissonSpec("lte", 0.5))
	cfg.KPIEvery = kpiCadence
	return cfg
}

func marshalSummary(t *testing.T, s metrics.RunSummary) []byte {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) == 0 {
		t.Fatalf("%s is empty — the comparison is vacuous", path)
	}
	return b
}

// harnessReference runs cfg the classic single-cell way: a ran.Harness
// build driven segment by segment through the KPI instants, each
// instant's record written as cell 0 and no deployment roll-up.
func harnessReference(t *testing.T, cfg ran.Config) oneCellOutputs {
	t.Helper()
	var trace, kpi bytes.Buffer
	tracer := obs.NewTracer(obs.NewJSONLSink(&trace))
	h := ran.Harness{Config: cfg, Window: oneCellWindow, Drain: oneCellDrain, Tracer: tracer}
	cell, err := h.Build()
	if err != nil {
		t.Fatal(err)
	}
	sampler := obs.NewKPISampler(&kpi, cfg.KPIEvery)
	total := h.Total()
	for at := cfg.KPIEvery; at <= total; at += cfg.KPIEvery {
		cell.Run(at)
		s := cell.SampleKPI(at)
		s.Rec.Cell = 0
		sampler.Emit(&s.Rec)
	}
	cell.Run(total)
	if err := sampler.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}
	return oneCellOutputs{summary: marshalSummary(t, cell.Summary()), trace: trace.Bytes(), kpi: kpi.Bytes()}
}

// oneCellDeployment is the same run as a one-cell deployment writing
// its trace and KPI stream under dir.
func oneCellDeployment(cfg ran.Config, dir string) deploy.Config {
	return deploy.Config{
		Cells:        1,
		Cell:         cfg,
		Window:       oneCellWindow,
		Drain:        oneCellDrain,
		Seed:         cfg.Seed,
		ExactFCT:     true,
		TracePathFor: func(int) string { return filepath.Join(dir, "trace.jsonl") },
		KPIPath:      filepath.Join(dir, "kpi.jsonl"),
	}
}

func deploymentOutputs(t *testing.T, dir string, res *deploy.Result) oneCellOutputs {
	t.Helper()
	if len(res.Cells) != 1 {
		t.Fatalf("%d cells, want 1", len(res.Cells))
	}
	return oneCellOutputs{
		summary: marshalSummary(t, res.Cells[0].Summary),
		trace:   readFile(t, filepath.Join(dir, "trace.jsonl")),
		kpi:     readFile(t, filepath.Join(dir, "kpi.jsonl")),
	}
}

func compareOneCell(t *testing.T, label string, want, got oneCellOutputs) {
	t.Helper()
	if !bytes.Equal(want.summary, got.summary) {
		t.Errorf("%s: summary differs\nwant %s\ngot  %s", label, want.summary, got.summary)
	}
	if !bytes.Equal(want.trace, got.trace) {
		t.Errorf("%s: trace differs (%d vs %d bytes)", label, len(want.trace), len(got.trace))
	}
	if !bytes.Equal(want.kpi, got.kpi) {
		t.Errorf("%s: KPI stream differs (%d vs %d bytes)", label, len(want.kpi), len(got.kpi))
	}
}

// withoutCheckpoints strips a checkpointed run's checkpoint bookkeeping
// (registry instruments and trace events), leaving the physics that
// must match an uncheckpointed run.
func withoutCheckpoints(t *testing.T, res *deploy.Result, out oneCellOutputs) oneCellOutputs {
	t.Helper()
	s := res.Cells[0].Summary
	m := make(map[string]float64, len(s.Metrics))
	for k, v := range s.Metrics {
		if !strings.HasPrefix(k, "checkpoint_") {
			m[k] = v
		}
	}
	s.Metrics = m
	var trace []byte
	for _, line := range bytes.SplitAfter(out.trace, []byte("\n")) {
		if !bytes.Contains(line, []byte(`"type":"`+obs.EvCheckpoint+`"`)) {
			trace = append(trace, line...)
		}
	}
	return oneCellOutputs{summary: marshalSummary(t, s), trace: trace, kpi: out.kpi}
}

// TestOneCellDeploymentIsHarnessRun pins the rule that a single cell
// is a one-cell deployment: deploy.Run with Cells 1 reproduces the
// harness run byte for byte (same seed, no KPI roll-up line), and so
// does a checkpointed run that is killed and resumed.
func TestOneCellDeploymentIsHarnessRun(t *testing.T) {
	cfg := oneCellConfig()
	ref := harnessReference(t, cfg)

	dir := t.TempDir()
	res, err := deploy.Run(oneCellDeployment(cfg, dir))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Cells[0].Summary.Seed; got != cfg.Seed {
		t.Errorf("cell seed %d, want the master seed %d", got, cfg.Seed)
	}
	compareOneCell(t, "plain run", ref, deploymentOutputs(t, dir, res))

	checkpointed := func(dir string) deploy.Config {
		dc := oneCellDeployment(cfg, dir)
		dc.Checkpoint = deploy.CheckpointConfig{Dir: filepath.Join(dir, "ck"), Every: 150 * sim.Millisecond}
		return dc
	}
	dirA := t.TempDir()
	resA, err := deploy.Run(checkpointed(dirA))
	if err != nil {
		t.Fatal(err)
	}
	outA := deploymentOutputs(t, dirA, resA)
	compareOneCell(t, "checkpointed run", ref, withoutCheckpoints(t, resA, outA))

	// Kill: run again, drop the newest checkpoint, resume from the rest.
	dirB := t.TempDir()
	if _, err := deploy.Run(checkpointed(dirB)); err != nil {
		t.Fatal(err)
	}
	files := mustCheckpointFiles(t, filepath.Join(dirB, "ck"), 0)
	var newest sim.Time
	for at := range files {
		newest = max(newest, at)
	}
	if err := os.Remove(files[newest]); err != nil {
		t.Fatal(err)
	}
	resB, err := deploy.Resume(checkpointed(dirB))
	if err != nil {
		t.Fatal(err)
	}
	compareOneCell(t, "killed and resumed", outA, deploymentOutputs(t, dirB, resB))
}

// TestTraceWriteErrorFailsRun checks that a trace the runtime cannot
// write fails the run instead of being dropped at close.
func TestTraceWriteErrorFailsRun(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	dc := oneCellDeployment(oneCellConfig(), t.TempDir())
	dc.TracePathFor = func(int) string { return "/dev/full" }
	if _, err := deploy.Run(dc); err == nil {
		t.Fatal("deploy.Run wrote its trace to /dev/full without an error")
	}
}
