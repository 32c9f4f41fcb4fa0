package phy

import (
	"math"
	"testing"
	"testing/quick"

	"outran/internal/sim"
)

func TestNumerologySlots(t *testing.T) {
	cases := []struct {
		mu   Numerology
		scs  int
		slot sim.Time
	}{
		{Mu0, 15, sim.Millisecond},
		{Mu1, 30, 500 * sim.Microsecond},
		{Mu2, 60, 250 * sim.Microsecond},
		{Mu3, 120, 125 * sim.Microsecond},
	}
	for _, c := range cases {
		if c.mu.SCSkHz() != c.scs {
			t.Errorf("µ%d SCS %d, want %d", c.mu, c.mu.SCSkHz(), c.scs)
		}
		if c.mu.SlotDuration() != c.slot {
			t.Errorf("µ%d slot %v, want %v", c.mu, c.mu.SlotDuration(), c.slot)
		}
	}
}

func TestRBBandwidth(t *testing.T) {
	if got := Mu0.RBBandwidthHz(); got != 180e3 {
		t.Fatalf("LTE RB bandwidth %g, want 180 kHz", got)
	}
	if got := Mu3.RBBandwidthHz(); got != 1440e3 {
		t.Fatalf("µ3 RB bandwidth %g, want 1440 kHz (paper §4.1)", got)
	}
}

func TestGridPresets(t *testing.T) {
	lte := LTE20MHz()
	if lte.NumRB != 100 {
		t.Fatalf("LTE 20 MHz has %d RBs, want 100", lte.NumRB)
	}
	if lte.BandwidthHz() != 18e6 {
		t.Fatalf("LTE scheduled bandwidth %g", lte.BandwidthHz())
	}
	nr := NR100MHz(Mu1)
	if nr.NumRB != 273 {
		t.Fatalf("NR 100 MHz µ1 has %d RBs, want 273", nr.NumRB)
	}
	for _, g := range []Grid{lte, Colosseum(), nr, NR100MHz(Mu0), NR100MHz(Mu2), NR100MHz(Mu3)} {
		if err := g.Validate(); err != nil {
			t.Errorf("preset invalid: %v", err)
		}
	}
}

func TestGridValidate(t *testing.T) {
	if err := (Grid{Numerology: Mu0, NumRB: 0, CarrierHz: 1e9}).Validate(); err == nil {
		t.Error("0 RBs accepted")
	}
	if err := (Grid{Numerology: Numerology(9), NumRB: 10, CarrierHz: 1e9}).Validate(); err == nil {
		t.Error("bad numerology accepted")
	}
	if err := (Grid{Numerology: Mu0, NumRB: 10}).Validate(); err == nil {
		t.Error("zero carrier accepted")
	}
}

func TestCQIEfficiencyMonotonic(t *testing.T) {
	prev := 0.0
	for c := CQI(1); c <= MaxCQI; c++ {
		e := c.Efficiency()
		if e <= prev {
			t.Fatalf("efficiency not increasing at CQI %d", c)
		}
		prev = e
	}
	if CQI(0).Efficiency() != 0 {
		t.Fatal("CQI 0 should have zero efficiency")
	}
	if CQI(-1).Efficiency() != 0 || CQI(99).Efficiency() != MaxCQI.Efficiency() {
		t.Fatal("out-of-range CQI not clamped")
	}
}

func TestCQIFromSINRMonotonic(t *testing.T) {
	prev := CQI(0)
	for s := -10.0; s <= 30; s += 0.25 {
		c := CQIFromSINR(s)
		if c < prev {
			t.Fatalf("CQI decreased with SINR at %g dB", s)
		}
		prev = c
	}
	if CQIFromSINR(-20) != 0 {
		t.Fatal("very low SINR should give CQI 0")
	}
	if CQIFromSINR(40) != MaxCQI {
		t.Fatal("very high SINR should give CQI 15")
	}
}

func TestCQISINRRoundTrip(t *testing.T) {
	for c := CQI(1); c <= MaxCQI; c++ {
		if got := CQIFromSINR(c.SINRFloorDB()); got != c {
			t.Fatalf("CQIFromSINR(floor(%d)) = %d", c, got)
		}
		if got := CQIFromSINR(c.SINRFloorDB() - 0.01); got != c-1 {
			t.Fatalf("just below floor of %d gives %d", c, got)
		}
	}
}

func TestTBSBits(t *testing.T) {
	if TBSBits(0, 10) != 0 || TBSBits(5, 0) != 0 {
		t.Fatal("degenerate TBS not zero")
	}
	// Linear in nRB.
	one := TBSBits(10, 1)
	if TBSBits(10, 7) != 7*one {
		t.Fatal("TBS not linear in RBs")
	}
	// LTE 20 MHz at top CQI should be near the paper's 97 Mbps
	// (256QAM SISO) figure: within a factor accounting for our 64QAM
	// table top.
	peak := float64(TBSBits(MaxCQI, 100)) / Mu0.SlotDuration().Seconds()
	if peak < 55e6 || peak > 110e6 {
		t.Fatalf("LTE peak rate %g Mbps implausible", peak/1e6)
	}
}

func TestRatePerRB(t *testing.T) {
	g := LTE20MHz()
	r := RatePerRB(10, g)
	want := float64(RBBits(10)) / 0.001
	if math.Abs(r-want) > 1 {
		t.Fatalf("RatePerRB %g want %g", r, want)
	}
	// Same CQI at µ3 yields higher per-RB rate (wider RB, shorter slot).
	if RatePerRB(10, NR100MHz(Mu3)) <= r {
		t.Fatal("µ3 RB rate should exceed LTE RB rate")
	}
}

func TestSpectralEfficiency(t *testing.T) {
	if SpectralEfficiency(18e6, 1, 18e6) != 1 {
		t.Fatal("SE computation wrong")
	}
	if SpectralEfficiency(100, 0, 18e6) != 0 || SpectralEfficiency(100, 1, 0) != 0 {
		t.Fatal("degenerate SE should be 0")
	}
}

// Property: TBS is monotone in both CQI and RB count.
func TestTBSMonotoneProperty(t *testing.T) {
	prop := func(c1, c2 uint8, n1, n2 uint8) bool {
		cqiA, cqiB := CQI(c1%16), CQI(c2%16)
		rbA, rbB := int(n1%100)+1, int(n2%100)+1
		if cqiA > cqiB {
			cqiA, cqiB = cqiB, cqiA
		}
		if rbA > rbB {
			rbA, rbB = rbB, rbA
		}
		return TBSBits(cqiA, rbA) <= TBSBits(cqiB, rbB)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
