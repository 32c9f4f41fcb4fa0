package channel

import (
	"testing"

	"outran/internal/rng"
	"outran/internal/sim"
)

var sinkF float64

// cqiPeriod is the cell's CQI reporting cadence.
const cqiPeriod = 5 * sim.Millisecond

// BenchmarkCQIReport replays one UE's CQI report as the cell issues it:
// every subband of a pedestrian channel at one instant, advancing by
// the reporting period between reports. One op is one full report.
func BenchmarkCQIReport(b *testing.B) {
	m := Pedestrian().NewUEChannel(2.68e9, rng.New(1))
	n := m.NumSubbands()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := sim.Time(i) * cqiPeriod
		for sb := 0; sb < n; sb++ {
			sinkF += m.SINRdB(now, sb)
		}
	}
}

// BenchmarkDecodeSINR replays a HARQ decode as the cell's sinrOver does
// it: the SINR averaged over the subband set a transport block flew
// over, at the TB's arrival instant. Four of 13 subbands is a UE
// granted roughly 25–30 of 100 RBs; decodes arrive one TTI apart. One
// op is one decode.
func BenchmarkDecodeSINR(b *testing.B) {
	m := Pedestrian().NewUEChannel(2.68e9, rng.New(2))
	sbs := []int{3, 4, 5, 6}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := sim.Time(i) * sim.Millisecond
		s := 0.0
		for _, sb := range sbs {
			s += m.SINRdB(now, sb)
		}
		sinkF = s / float64(len(sbs))
	}
}

func BenchmarkMobilityPosition(b *testing.B) {
	m := NewMobility(200, 1.4, rng.New(3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, y := m.Position(sim.Time(i) * sim.Millisecond)
		sinkF = x + y
	}
}
