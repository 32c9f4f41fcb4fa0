package channel

import (
	"math"
	"testing"

	"outran/internal/rng"
	"outran/internal/sim"
)

func TestFadingZeroMeanPower(t *testing.T) {
	r := rng.New(1)
	m := New(Config{MeanSINRdB: 20, SpeedMPS: 1.4, CarrierHz: 2.68e9, NumSubbands: 1}, r)
	sum := 0.0
	const n = 5000
	for i := 0; i < n; i++ {
		tm := sim.Time(i) * sim.Millisecond
		sum += m.SINRdB(tm, 0)
	}
	mean := sum / n
	// Rayleigh fading in dB has mean about -2.5 dB (E[log] < log E);
	// the long-run average SINR should sit near the configured mean,
	// allowing for that bias.
	if math.Abs(mean-20) > 4 {
		t.Fatalf("long-run mean SINR %g far from configured 20", mean)
	}
}

func TestFadingVaries(t *testing.T) {
	r := rng.New(2)
	m := New(Config{MeanSINRdB: 20, SpeedMPS: 1.4, CarrierHz: 2.68e9, NumSubbands: 1}, r)
	var lo, hi = math.Inf(1), math.Inf(-1)
	for i := 0; i < 2000; i++ {
		v := m.SINRdB(sim.Time(i)*sim.Millisecond, 0)
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if hi-lo < 6 {
		t.Fatalf("pedestrian fading range only %.1f dB", hi-lo)
	}
}

func TestFadingTimeCoherence(t *testing.T) {
	// At 1.4 m/s / 2.68 GHz the Doppler is ~12.5 Hz: the channel must
	// be strongly correlated across 1 ms and decorrelated across
	// seconds.
	r := rng.New(3)
	m := New(Config{MeanSINRdB: 20, SpeedMPS: 1.4, CarrierHz: 2.68e9, NumSubbands: 1}, r)
	var step1ms, step1s float64
	const n = 400
	for i := 0; i < n; i++ {
		base := sim.Time(i) * 5 * sim.Millisecond
		a := m.SINRdB(base, 0)
		step1ms += math.Abs(m.SINRdB(base+sim.Millisecond, 0) - a)
		step1s += math.Abs(m.SINRdB(base+sim.Second, 0) - a)
	}
	if step1ms/n > step1s/n {
		t.Fatalf("channel less coherent at 1 ms (%g) than 1 s (%g)", step1ms/n, step1s/n)
	}
	if step1ms/n > 1.5 {
		t.Fatalf("1 ms channel step %g dB too large for pedestrian Doppler", step1ms/n)
	}
}

func TestStaticChannelConstant(t *testing.T) {
	r := rng.New(4)
	m := New(Config{MeanSINRdB: 15, SpeedMPS: 0, CarrierHz: 2.68e9, NumSubbands: 1}, r)
	a := m.SINRdB(0, 0)
	b := m.SINRdB(10*sim.Second, 0)
	if a != b {
		t.Fatalf("static channel changed: %g -> %g", a, b)
	}
}

func TestSubbandsDiffer(t *testing.T) {
	r := rng.New(5)
	m := New(Config{MeanSINRdB: 20, SpeedMPS: 1.4, CarrierHz: 2.68e9, NumSubbands: 8}, r)
	if m.NumSubbands() != 8 {
		t.Fatalf("NumSubbands %d", m.NumSubbands())
	}
	diff := 0.0
	for i := 0; i < 100; i++ {
		tm := sim.Time(i) * 10 * sim.Millisecond
		diff += math.Abs(m.SINRdB(tm, 0) - m.SINRdB(tm, 5))
	}
	if diff/100 < 0.2 {
		t.Fatal("no frequency selectivity between subbands")
	}
}

func TestDeterministicAcrossConstruction(t *testing.T) {
	m1 := New(Config{MeanSINRdB: 18, SpeedMPS: 1.4, CarrierHz: 2.68e9, NumSubbands: 3}, rng.New(99))
	m2 := New(Config{MeanSINRdB: 18, SpeedMPS: 1.4, CarrierHz: 2.68e9, NumSubbands: 3}, rng.New(99))
	for i := 0; i < 100; i++ {
		tm := sim.Time(i) * sim.Millisecond
		if m1.SINRdB(tm, i%3) != m2.SINRdB(tm, i%3) {
			t.Fatal("same seed, different channel")
		}
	}
}

func TestMobilityStaysInDisc(t *testing.T) {
	m := NewMobility(200, 1.4, rng.New(6))
	for i := 0; i < 1000; i++ {
		d := m.DistanceM(sim.Time(i) * sim.Second)
		if d > 200.0001 {
			t.Fatalf("walked outside the disc: %g m", d)
		}
	}
}

func TestMobilitySpeed(t *testing.T) {
	m := NewMobility(200, 1.4, rng.New(7))
	for i := 0; i < 500; i++ {
		t0 := sim.Time(i) * sim.Second
		x0, y0 := m.Position(t0)
		x1, y1 := m.Position(t0 + sim.Second)
		d := math.Hypot(x1-x0, y1-y0)
		if d > 1.4*1.01 {
			t.Fatalf("moved %g m in 1 s at 1.4 m/s", d)
		}
	}
}

func TestMobilityStatic(t *testing.T) {
	m := NewMobility(100, 0, rng.New(8))
	x0, y0 := m.Position(0)
	x1, y1 := m.Position(100 * sim.Second)
	if x0 != x1 || y0 != y1 {
		t.Fatal("static UE moved")
	}
}

func TestScenarioPresets(t *testing.T) {
	for _, s := range []Scenario{Pedestrian(), Urban28GHz(), ColosseumRome(), ColosseumBoston(), ColosseumPOWDER()} {
		ch := s.NewUEChannel(2.68e9, rng.New(9))
		v := ch.SINRdB(0, 0)
		if v < -20 || v > 60 {
			t.Errorf("%s: implausible SINR %g", s.Name, v)
		}
	}
}

func TestPedestrianMixture(t *testing.T) {
	// Fig 2b: UEs spread across medium/good/excellent classes. Drawing
	// many UEs must produce a wide spread of mean SINRs.
	s := Pedestrian()
	r := rng.New(10)
	var lo, hi = math.Inf(1), math.Inf(-1)
	for i := 0; i < 200; i++ {
		m := s.NewUEChannel(2.68e9, r)
		lo = math.Min(lo, m.MeanSINRdB())
		hi = math.Max(hi, m.MeanSINRdB())
	}
	if lo > 12 || hi < 28 {
		t.Fatalf("SINR mixture spread [%g, %g] too narrow for Fig 2b", lo, hi)
	}
}

func TestCQIUsesChannel(t *testing.T) {
	r := rng.New(11)
	good := New(Config{MeanSINRdB: 35, CarrierHz: 2.68e9, NumSubbands: 1}, r)
	bad := New(Config{MeanSINRdB: -5, CarrierHz: 2.68e9, NumSubbands: 1}, r)
	if good.CQI(0, 0) <= bad.CQI(0, 0) {
		t.Fatal("CQI ordering does not follow SINR")
	}
}
