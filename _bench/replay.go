package main

import (
	"time"

	"outran/internal/channel"
	"outran/internal/core"
	"outran/internal/mac"
	"outran/internal/phy"
	"outran/internal/ran"
	"outran/internal/rng"
	"outran/internal/sim"
)

// Each replay is timed in replayBatches batches of at least
// replayBatch wall time; the median batch is reported.
const (
	replayBatches = 5
	replayBatch   = 100 * time.Millisecond
)

// sinkInt keeps replayed results alive so the compiler cannot drop
// the calls that produce them.
var sinkInt int

// timeBatches runs step (which does n units of work) until each batch
// has lasted replayBatch and returns the median ns per unit.
func timeBatches(step func() int) float64 {
	var per []float64
	for b := 0; b < replayBatches; b++ {
		n := 0
		t := time.Now()
		for time.Since(t) < replayBatch {
			n += step()
		}
		per = append(per, float64(time.Since(t).Nanoseconds())/float64(n))
	}
	return median(per)
}

// channelNsPerReport replays the cell's CQI pattern: every CQI period,
// each UE reports the CQI of every subband at that instant. It returns
// the time of one UE's full report.
func channelNsPerReport(cfg ran.Config) float64 {
	cfg = cfg.WithDefaults()
	r := rng.New(cfg.Seed)
	ues := make([]*channel.Model, cfg.NumUEs)
	for i := range ues {
		ues[i] = cfg.Scenario.NewUEChannel(cfg.Grid.CarrierHz, r)
	}
	now := sim.Time(0)
	return timeBatches(func() int {
		now += cfg.CQIPeriod
		for _, ch := range ues {
			for sb := 0; sb < ch.NumSubbands(); sb++ {
				sinkInt += int(ch.CQI(now, sb))
			}
		}
		return len(ues)
	})
}

// schedReplay times Allocate of fresh PF and OutRAN schedulers on a
// copy of mid-run MAC state: the call the cell makes every TTI.
func schedReplay(s *session, m map[string]float64, cfg ran.Config, now sim.Time, users []*mac.User, grid phy.Grid) {
	iu, err := core.NewInterUser(mac.PFMetric, "PF", cfg.OutRAN.Epsilon)
	if err != nil {
		s.failf("core.NewInterUser: %v", err)
		return
	}
	for _, c := range []struct {
		key   string
		sched mac.Scheduler
	}{
		{"sched.pf_ns_per_allocate", mac.NewPF()},
		{"sched.outran_ns_per_allocate", iu},
	} {
		m[c.key] = timeBatches(func() int {
			sinkInt += c.sched.Allocate(now, users, grid).Allocated()
			return 1
		})
	}
}
