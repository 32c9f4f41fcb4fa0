package main

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"outran/internal/obs"
	"outran/internal/ran"
	"outran/internal/rlc"
	"outran/internal/rng"
	"outran/internal/sim"
	"outran/internal/workload"
)

// workCounts are the machine-independent work counts of one run.
type workCounts struct {
	Events, TTIs, RLCPDUs, HARQTx, Deliveries, Flows uint64
}

// countCell runs one short execution of a single-cell workload with a
// counting tracer and delivery hook.
func countCell(t *testing.T, w cellWorkload, seed uint64) workCounts {
	t.Helper()
	w.window = 2 * sim.Second
	w.placements = 1
	h := w.harness(w.execSeeds(seed)[0])
	sink := &countSink{}
	var k workCounts
	h.Tracer = obs.NewTracer(sink)
	h.Setup = func(c *ran.Cell) error {
		c.SetFaultHooks(ran.FaultHooks{OnDeliver: func(int, *rlc.SDU) { k.Deliveries++ }})
		return nil
	}
	c, err := h.Build()
	if err != nil {
		t.Fatal(err)
	}
	c.Run(h.Total())
	k.Events = c.Eng.Processed()
	k.TTIs = c.CollectStats().TTIs
	k.RLCPDUs = sink.n[obs.EvRLCTx]
	k.HARQTx = c.Reg.Counter("harq_tx").Value()
	k.Flows = uint64(flowsOf(t, c, h))
	return k
}

// countMetro runs a small deployment of the metro workload with
// counting tracers.
func countMetro(t *testing.T, w metroWorkload, seed uint64) workCounts {
	t.Helper()
	scratchDir = t.TempDir()
	w.cells, w.window, w.drain = 4, 1*sim.Second, 1*sim.Second
	sinks := make([]*countSink, w.cells)
	for i := range sinks {
		sinks[i] = &countSink{}
	}
	r, err := w.deploy(seed, metroOpts{workers: runtime.GOMAXPROCS(0), kpi: true, sinks: sinks})
	if err != nil {
		t.Fatal(err)
	}
	var k workCounts
	hs := w.harnesses(seed)
	for i, c := range r.res.Live {
		k.Events += c.Eng.Processed()
		k.TTIs += c.CollectStats().TTIs
		k.RLCPDUs += sinks[i].n[obs.EvRLCTx]
		k.Deliveries += sinks[i].n[obs.EvDeliver]
		k.HARQTx += c.Reg.Counter("harq_tx").Value()
		k.Flows += uint64(flowsOf(t, c, hs[i]))
	}
	return k
}

// flowsOf regenerates the cell's workload and counts its flows.
func flowsOf(t *testing.T, c *ran.Cell, h ran.Harness) int {
	t.Helper()
	seed := h.WorkloadSeed
	if seed == 0 {
		seed = c.Config().Seed + 7919 // the harness's own derivation
	}
	src, err := c.Config().Workload.Build(workload.Env{
		NumUEs:      c.Config().NumUEs,
		CapacityBps: c.EffectiveCapacityBps(),
		Span:        h.Warmup + h.Window + h.Tail,
	}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return len(workload.Collect(src))
}

// TestWorkCountsRepeat pins the benchmark's exact counters: two runs of
// the same seed must do exactly the same work, on every workload and
// on both recorded seeds.
func TestWorkCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, b := range benches() {
		for _, seed := range []uint64{defaultSeed, heldOutSeed} {
			var first, second workCounts
			switch w := b.(type) {
			case *cellWorkload:
				first, second = countCell(t, *w, seed), countCell(t, *w, seed)
			case *metroWorkload:
				first, second = countMetro(t, *w, seed), countMetro(t, *w, seed)
			default:
				t.Fatalf("%s: unknown workload type %T", b.Name(), b)
			}
			if first != second {
				t.Errorf("%s seed %d: work counts differ between runs:\n%+v\n%+v", b.Name(), seed, first, second)
			}
			if first.Events == 0 || first.RLCPDUs == 0 || first.HARQTx == 0 || first.Deliveries == 0 || first.Flows == 0 {
				t.Errorf("%s seed %d: a work count is zero: %+v", b.Name(), seed, first)
			}
		}
	}
}

// TestManifestMatches keeps BENCHMARK.json in step with the metric and
// workload tables the program reports from.
func TestManifestMatches(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &man); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, n := range workloadNames() {
		if !attributionOnly[n] {
			names = append(names, n)
		}
	}
	if len(man.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(man.Workloads), len(names))
	}
	for i, w := range man.Workloads {
		if w.Name != names[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, names[i])
		}
	}
	for _, c := range []struct {
		kind     string
		man, def []metricDef
	}{{"end_to_end", man.EndToEnd, endToEnd}, {"per_layer", man.PerLayer, perLayer}} {
		if len(c.man) != len(c.def) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", c.kind, len(c.man), len(c.def))
			continue
		}
		for i := range c.def {
			if c.man[i] != c.def[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, program %+v", c.kind, i, c.man[i], c.def[i])
			}
		}
	}
}

// TestSelfTimes checks that a span's self time excludes its children.
func TestSelfTimes(t *testing.T) {
	s := &spans{list: []span{
		{ID: 1, Name: "run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "cell", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "cell", Start: 60, End: 80},
	}}
	_, total, self := s.selfTimes()
	if total["run"] != 100 || self["run"] != 40 || total["cell"] != 60 || self["cell"] != 60 {
		t.Fatalf("total %v self %v", total, self)
	}
}
