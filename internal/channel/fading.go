// Package channel models the time- and frequency-varying wireless
// channel each UE experiences: log-distance path loss with shadowing,
// Jakes (sum-of-sinusoids) Rayleigh fading with Doppler from the UE's
// speed, per-subband frequency-selective offsets, and random-waypoint
// pedestrian mobility. It substitutes for the 3GPP 36.141 fading
// traces and the NS-3/Colosseum channel emulation used in the paper.
package channel

import (
	"math"

	"outran/internal/phy"
	"outran/internal/rng"
	"outran/internal/sim"
)

const speedOfLight = 299792458.0

// jakes is a deterministic Rayleigh fading process realised as a sum
// of sinusoids (Jakes' model). The complex gain at time t is a pure
// function of t, so the process needs no per-tick state updates and
// can be sampled at arbitrary simulation times.
type jakes struct {
	phasesI [numOscillators]float64
	phasesQ [numOscillators]float64
	// omega is each oscillator's Doppler shift 2π·fD·cos(angle) in
	// rad/s, fixed by its random arrival angle at construction.
	omega [numOscillators]float64
	// static marks a 0 Hz channel, whose gain is the constant staticDB.
	static   bool
	staticDB float64
}

const numOscillators = 8

func newJakes(dopplerHz float64, r *rng.Source) jakes {
	var j jakes
	for n := 0; n < numOscillators; n++ {
		j.phasesI[n] = 2 * math.Pi * r.Float64()
		j.phasesQ[n] = 2 * math.Pi * r.Float64()
		// Random arrival angles give a smoother Doppler spectrum
		// than the classic deterministic spacing.
		angle := 2 * math.Pi * r.Float64()
		j.omega[n] = 2 * math.Pi * dopplerHz * math.Cos(angle)
	}
	if dopplerHz <= 0 {
		// Static channel: fixed draw baked into phase 0.
		j.static = true
		sum := 0.0
		for n := 0; n < numOscillators; n++ {
			sum += math.Cos(j.phasesI[n]) + math.Cos(j.phasesQ[n])
		}
		// Mild static multipath offset in [-3, +3] dB.
		j.staticDB = 3 * math.Tanh(sum/4)
	}
	return j
}

// gainDB returns the instantaneous fading gain in dB (0 dB average
// power) at time t.
//
//outran:allocfree
func (j *jakes) gainDB(t sim.Time) float64 {
	if j.static {
		return j.staticDB
	}
	ts := t.Seconds()
	var i, q float64
	for n := 0; n < numOscillators; n++ {
		w := j.omega[n] * ts
		i += math.Cos(w + j.phasesI[n])
		q += math.Sin(w + j.phasesQ[n])
	}
	norm := float64(numOscillators)
	p := (i*i + q*q) / norm // unit mean power
	if p < 1e-6 {
		p = 1e-6
	}
	return 10 * math.Log10(p)
}

// Model is the downlink channel of one UE. Zero value is not usable;
// construct with New. A Model is not safe for concurrent use: SINRdB
// memoizes the wideband gain of the last instant it evaluated.
type Model struct {
	meanSINRdB  float64
	subbands    []jakes
	wideband    jakes
	mob         *Mobility
	plExponent  float64
	refDistM    float64
	shadowingDB float64

	// The wideband gain at instant wbAt (valid once wbSet): a CQI
	// report or HARQ decode asks for several subbands at one instant,
	// and all of them share it. Derived from the seed-built state, so
	// checkpoints need not carry it.
	wbAt  sim.Time
	wbDB  float64
	wbSet bool

	// bankEvals counts oscillator-bank evaluations, the unit of PHY
	// work the memo saves; tests pin it.
	bankEvals int
}

// Config parameterises a UE channel.
type Config struct {
	MeanSINRdB   float64 // long-term average SINR at the reference distance
	SpeedMPS     float64 // UE speed (Doppler); 0 for static
	CarrierHz    float64 // downlink carrier frequency
	NumSubbands  int     // frequency-selective granularity (>=1)
	Mobility     *Mobility
	PathLossExp  float64 // 0 disables distance-driven SINR drift
	ShadowingStd float64 // lognormal shadowing std dev in dB
}

// New builds a channel model using r for all random draws.
func New(cfg Config, r *rng.Source) *Model {
	if cfg.NumSubbands < 1 {
		cfg.NumSubbands = 1
	}
	doppler := cfg.SpeedMPS / speedOfLight * cfg.CarrierHz
	m := &Model{
		meanSINRdB: cfg.MeanSINRdB,
		mob:        cfg.Mobility,
		plExponent: cfg.PathLossExp,
		refDistM:   100,
		wideband:   newJakes(doppler, r),
	}
	if cfg.ShadowingStd > 0 {
		m.shadowingDB = r.Normal(0, cfg.ShadowingStd)
	}
	m.subbands = make([]jakes, cfg.NumSubbands)
	for i := range m.subbands {
		m.subbands[i] = newJakes(doppler, r)
	}
	return m
}

// SINRdB returns the instantaneous SINR (dB) on the given subband.
//
//outran:allocfree
func (m *Model) SINRdB(t sim.Time, subband int) float64 {
	if subband < 0 {
		subband = 0
	}
	if !m.wbSet || m.wbAt != t {
		m.wbAt, m.wbDB, m.wbSet = t, m.wideband.gainDB(t), true
		m.bankEvals++
	}
	m.bankEvals++
	sb := &m.subbands[subband%len(m.subbands)]
	s := m.meanSINRdB + m.shadowingDB
	// Wideband fading dominates; subband fading adds frequency
	// selectivity around it.
	s += 0.7*m.wbDB + 0.3*sb.gainDB(t)
	if m.mob != nil && m.plExponent > 0 {
		d := m.mob.DistanceM(t)
		if d < 1 {
			d = 1
		}
		s -= 10 * m.plExponent * math.Log10(d/m.refDistM)
	}
	return s
}

// CQI returns the CQI the UE would report for the subband at time t.
func (m *Model) CQI(t sim.Time, subband int) phy.CQI {
	return phy.CQIFromSINR(m.SINRdB(t, subband))
}

// NumSubbands returns the frequency-selective granularity.
func (m *Model) NumSubbands() int { return len(m.subbands) }

// MeanSINRdB returns the configured long-term average SINR.
func (m *Model) MeanSINRdB() float64 { return m.meanSINRdB }
