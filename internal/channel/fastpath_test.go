package channel

import (
	"math"
	"testing"

	"outran/internal/rng"
	"outran/internal/sim"
)

// refJakes is the fading process as it was before the fast path
// (precomputed ω, static cache), kept verbatim as the reference the
// optimised one must match bit for bit.
type refJakes struct {
	dopplerHz float64
	phasesI   []float64
	phasesQ   []float64
	angles    []float64
}

func newRefJakes(dopplerHz float64, r *rng.Source) *refJakes {
	j := &refJakes{
		dopplerHz: dopplerHz,
		phasesI:   make([]float64, numOscillators),
		phasesQ:   make([]float64, numOscillators),
		angles:    make([]float64, numOscillators),
	}
	for n := 0; n < numOscillators; n++ {
		j.phasesI[n] = 2 * math.Pi * r.Float64()
		j.phasesQ[n] = 2 * math.Pi * r.Float64()
		j.angles[n] = 2 * math.Pi * r.Float64()
	}
	return j
}

func (j *refJakes) gainDB(t sim.Time) float64 {
	if j.dopplerHz <= 0 {
		sum := 0.0
		for n := 0; n < numOscillators; n++ {
			sum += math.Cos(j.phasesI[n]) + math.Cos(j.phasesQ[n])
		}
		return 3 * math.Tanh(sum/4)
	}
	ts := t.Seconds()
	var i, q float64
	for n := 0; n < numOscillators; n++ {
		w := 2 * math.Pi * j.dopplerHz * math.Cos(j.angles[n]) * ts
		i += math.Cos(w + j.phasesI[n])
		q += math.Sin(w + j.phasesQ[n])
	}
	norm := float64(numOscillators)
	p := (i*i + q*q) / norm
	if p < 1e-6 {
		p = 1e-6
	}
	return 10 * math.Log10(p)
}

// refModel is the pre-fast-path Model: no wideband memo, so every
// SINRdB call evaluates both oscillator banks.
type refModel struct {
	meanSINRdB  float64
	subbands    []*refJakes
	wideband    *refJakes
	mob         *Mobility
	plExponent  float64
	refDistM    float64
	shadowingDB float64
}

// newRefModel mirrors New's draw order.
func newRefModel(cfg Config, r *rng.Source) *refModel {
	if cfg.NumSubbands < 1 {
		cfg.NumSubbands = 1
	}
	doppler := cfg.SpeedMPS / speedOfLight * cfg.CarrierHz
	m := &refModel{
		meanSINRdB: cfg.MeanSINRdB,
		mob:        cfg.Mobility,
		plExponent: cfg.PathLossExp,
		refDistM:   100,
		wideband:   newRefJakes(doppler, r),
	}
	if cfg.ShadowingStd > 0 {
		m.shadowingDB = r.Normal(0, cfg.ShadowingStd)
	}
	m.subbands = make([]*refJakes, cfg.NumSubbands)
	for i := range m.subbands {
		m.subbands[i] = newRefJakes(doppler, r)
	}
	return m
}

// refUEChannel mirrors Scenario.NewUEChannel's draw order, so a seed
// gives the reference and the real model the same UE.
func refUEChannel(s Scenario, carrierHz float64, r *rng.Source) *refModel {
	mean := s.drawMeanSINR(r)
	var mob *Mobility
	if s.RadiusM > 0 {
		mob = NewMobility(s.RadiusM, s.SpeedMPS, r.Fork())
	}
	return newRefModel(Config{
		MeanSINRdB:   mean,
		SpeedMPS:     s.SpeedMPS,
		CarrierHz:    carrierHz,
		NumSubbands:  s.NumSubbands,
		Mobility:     mob,
		PathLossExp:  s.PathLossExp,
		ShadowingStd: s.ShadowingStd,
	}, r.Fork())
}

func (m *refModel) SINRdB(t sim.Time, subband int) float64 {
	if subband < 0 {
		subband = 0
	}
	sb := m.subbands[subband%len(m.subbands)]
	s := m.meanSINRdB + m.shadowingDB
	s += 0.7*m.wideband.gainDB(t) + 0.3*sb.gainDB(t)
	if m.mob != nil && m.plExponent > 0 {
		d := m.mob.DistanceM(t)
		if d < 1 {
			d = 1
		}
		s -= 10 * m.plExponent * math.Log10(d/m.refDistM)
	}
	return s
}

// TestSINRBitExactAgainstReference checks that the fast path returns
// the pre-fast-path SINR bit for bit on every subband, across
// scenarios (moving, static, distance-driven) and seeds, with instants
// revisited out of order (t, t, t+1ms, t, 0) so a stale wideband memo
// — or an uninitialised one answering a first call at t = 0 — fails.
func TestSINRBitExactAgainstReference(t *testing.T) {
	pathLoss := Pedestrian()
	pathLoss.Name = "pedestrian-pathloss"
	pathLoss.PathLossExp = 3.5
	scenarios := []Scenario{Pedestrian(), Urban28GHz(), ColosseumPOWDER(), pathLoss}
	bases := []sim.Time{0, 37 * sim.Millisecond, 5*sim.Second + 3*sim.Millisecond, 90 * sim.Second}
	for _, sc := range scenarios {
		for seed := uint64(1); seed <= 5; seed++ {
			for _, base := range bases {
				m := sc.NewUEChannel(2.68e9, rng.New(seed))
				ref := refUEChannel(sc, 2.68e9, rng.New(seed))
				if m.MeanSINRdB() != ref.meanSINRdB || m.shadowingDB != ref.shadowingDB {
					t.Fatalf("%s seed %d: reference drew a different UE", sc.Name, seed)
				}
				n := m.NumSubbands()
				for _, now := range []sim.Time{base, base, base + sim.Millisecond, base, 0} {
					// -1 and n exercise the clamp and the wrap.
					for sb := -1; sb <= n; sb++ {
						got, want := m.SINRdB(now, sb), ref.SINRdB(now, sb)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s seed %d t=%v subband %d: SINR %v, reference %v",
								sc.Name, seed, now, sb, got, want)
						}
					}
				}
			}
		}
	}
}

// TestCQIReportWorkAndAllocs pins the PHY work of one pedestrian CQI
// report — one wideband bank plus one bank per subband, 14 for 13
// subbands — and that a HARQ decode at the report's instant reuses the
// memoized wideband gain. A report allocates nothing.
func TestCQIReportWorkAndAllocs(t *testing.T) {
	m := Pedestrian().NewUEChannel(2.68e9, rng.New(1))
	n := m.NumSubbands()
	if n != 13 {
		t.Fatalf("pedestrian has %d subbands, want 13", n)
	}
	now := 5 * sim.Millisecond
	report := func() {
		for sb := 0; sb < n; sb++ {
			sinkF += m.SINRdB(now, sb)
		}
	}
	before := m.bankEvals
	report()
	if got := m.bankEvals - before; got != n+1 {
		t.Fatalf("13-subband report evaluated %d oscillator banks, want %d", got, n+1)
	}
	before = m.bankEvals
	for _, sb := range []int{3, 4, 5} {
		sinkF += m.SINRdB(now, sb)
	}
	if got := m.bankEvals - before; got != 3 {
		t.Fatalf("3-subband decode at the report instant evaluated %d banks, want 3", got)
	}
	before = m.bankEvals
	now += sim.Millisecond
	for _, sb := range []int{3, 4, 5} {
		sinkF += m.SINRdB(now, sb)
	}
	if got := m.bankEvals - before; got != 4 {
		t.Fatalf("3-subband decode at a fresh instant evaluated %d banks, want 4", got)
	}
	allocs := testing.AllocsPerRun(100, func() {
		now += cqiPeriod
		report()
	})
	if allocs != 0 {
		t.Fatalf("CQI report allocates %v times, want 0", allocs)
	}
}
