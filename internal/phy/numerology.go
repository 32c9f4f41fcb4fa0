// Package phy models the parts of the LTE/5G NR physical layer that a
// MAC scheduler observes: the time/frequency resource grid
// (numerology, TTI, resource blocks), the CQI feedback scale, and the
// mapping from channel quality to achievable transport block size.
package phy

import (
	"fmt"

	"outran/internal/sim"
)

// Numerology identifies a 3GPP NR sub-carrier spacing configuration µ.
// LTE is equivalent to µ=0 (15 kHz SCS, 1 ms slot).
type Numerology int

const (
	Mu0 Numerology = iota // 15 kHz SCS, 1 ms slot (LTE and NR µ=0)
	Mu1                   // 30 kHz SCS, 500 µs slot
	Mu2                   // 60 kHz SCS, 250 µs slot
	Mu3                   // 120 kHz SCS, 125 µs slot
)

// SCSkHz returns the sub-carrier spacing in kHz: 15 * 2^µ.
func (m Numerology) SCSkHz() int { return 15 << uint(m) }

// SlotDuration returns the slot length, which is the scheduling TTI:
// 1 ms / 2^µ.
func (m Numerology) SlotDuration() sim.Time {
	return sim.Millisecond >> uint(m)
}

// RBBandwidthHz returns the bandwidth of one resource block: 12
// subcarriers at the numerology's spacing.
func (m Numerology) RBBandwidthHz() float64 {
	return 12 * float64(m.SCSkHz()) * 1000
}

func (m Numerology) String() string {
	return fmt.Sprintf("µ=%d (%d kHz SCS, %v slot)", int(m), m.SCSkHz(), m.SlotDuration())
}

// Grid describes a carrier's schedulable downlink resources.
type Grid struct {
	Numerology Numerology
	NumRB      int     // resource blocks per TTI
	CarrierHz  float64 // carrier frequency (Doppler computation)
}

// BandwidthHz returns the total scheduled bandwidth.
func (g Grid) BandwidthHz() float64 {
	return float64(g.NumRB) * g.Numerology.RBBandwidthHz()
}

// TTI returns the scheduling interval.
func (g Grid) TTI() sim.Time { return g.Numerology.SlotDuration() }

// Validate reports configuration errors.
func (g Grid) Validate() error {
	if g.NumRB <= 0 {
		return fmt.Errorf("phy: grid needs at least 1 RB, got %d", g.NumRB)
	}
	if g.Numerology < Mu0 || g.Numerology > Mu3 {
		return fmt.Errorf("phy: unsupported numerology %d", g.Numerology)
	}
	if g.CarrierHz <= 0 {
		return fmt.Errorf("phy: non-positive carrier frequency %g", g.CarrierHz)
	}
	return nil
}

// LTE20MHz is the paper's LTE testbed grid: 100 RBs in 20 MHz,
// Band 7 (2680 MHz downlink).
func LTE20MHz() Grid {
	return Grid{Numerology: Mu0, NumRB: 100, CarrierHz: 2.68e9}
}

// Colosseum is the SCOPE/Colosseum srsRAN configuration: 15 RBs (3 MHz).
func Colosseum() Grid {
	return Grid{Numerology: Mu0, NumRB: 15, CarrierHz: 2.68e9}
}

// NR100MHz returns the paper's 5G grid for the given numerology. At
// 30 kHz SCS a 100 MHz carrier carries 273 RBs (3GPP 38.101-1); the RB
// count scales inversely with SCS for other numerologies.
func NR100MHz(mu Numerology) Grid {
	var nRB int
	switch mu {
	case Mu0:
		nRB = 270 // 3GPP caps µ=0 at 50 MHz/270 RB; widest config
	case Mu1:
		nRB = 273
	case Mu2:
		nRB = 135
	case Mu3:
		nRB = 66 // FR2-style allocation
	}
	return Grid{Numerology: mu, NumRB: nRB, CarrierHz: 28e9}
}
