package channel

import "outran/internal/rng"

// Scenario is a named channel environment used to instantiate the
// per-UE channels of a cell.
type Scenario struct {
	Name string
	// SINR mixture (Fig 2b): each UE draws a class, then a mean SINR
	// normally distributed around the class centre.
	Classes []SINRClass
	// Mobility parameters.
	SpeedMPS float64
	RadiusM  float64
	// Frequency selectivity.
	NumSubbands int
	// Shadowing std dev in dB.
	ShadowingStd float64
	// PathLossExp > 0 enables distance-driven SINR drift.
	PathLossExp float64
}

// SINRClass is one component of the SINR mixture.
type SINRClass struct {
	Name   string
	MeanDB float64
	StdDB  float64
	Weight float64
}

// Pedestrian reproduces the paper's main evaluation environment: the
// 3GPP pedestrian fading trace with UEs spread across Medium / Good /
// Excellent channel classes (Fig 2b), walking at 1.4 m/s in a 200 m
// cell.
func Pedestrian() Scenario {
	return Scenario{
		Name: "pedestrian",
		Classes: []SINRClass{
			{Name: "medium", MeanDB: 10, StdDB: 2.5, Weight: 0.3},
			{Name: "good", MeanDB: 22, StdDB: 3, Weight: 0.45},
			{Name: "excellent", MeanDB: 34, StdDB: 3, Weight: 0.25},
		},
		SpeedMPS:     1.4,
		RadiusM:      200,
		NumSubbands:  13,
		ShadowingStd: 2,
		PathLossExp:  0, // mean SINR already drawn per class
	}
}

// Urban28GHz approximates the NS-3 5G-LENA urban channel at 28 GHz
// used for the paper's 5G simulations: higher variance means, more
// stable small-scale dynamics relative to the short slots.
func Urban28GHz() Scenario {
	return Scenario{
		Name: "urban-28ghz",
		Classes: []SINRClass{
			{Name: "cell-edge", MeanDB: 8, StdDB: 2, Weight: 0.25},
			{Name: "mid", MeanDB: 18, StdDB: 3, Weight: 0.45},
			{Name: "near", MeanDB: 30, StdDB: 3, Weight: 0.3},
		},
		SpeedMPS:     1.4,
		RadiusM:      100,
		NumSubbands:  9,
		ShadowingStd: 3,
		PathLossExp:  0,
	}
}

// Colosseum scenario presets approximating the SCOPE RF scenarios used
// in Fig 19. Each differs in UE distance (mean SINR) and mobility.
func ColosseumRome() Scenario { // close, moderate mobility
	return Scenario{
		Name: "rome",
		Classes: []SINRClass{
			{Name: "close", MeanDB: 24, StdDB: 4, Weight: 1},
		},
		SpeedMPS: 3, RadiusM: 80, NumSubbands: 5, ShadowingStd: 3,
	}
}

func ColosseumBoston() Scenario { // close, fast mobility
	return Scenario{
		Name: "boston",
		Classes: []SINRClass{
			{Name: "close", MeanDB: 22, StdDB: 4, Weight: 1},
		},
		SpeedMPS: 9, RadiusM: 80, NumSubbands: 5, ShadowingStd: 3,
	}
}

func ColosseumPOWDER() Scenario { // medium distance, static
	return Scenario{
		Name: "powder",
		Classes: []SINRClass{
			{Name: "medium", MeanDB: 14, StdDB: 3, Weight: 1},
		},
		SpeedMPS: 0, RadiusM: 120, NumSubbands: 5, ShadowingStd: 3,
	}
}

// NewUEChannel draws one UE's channel from the scenario.
func (s Scenario) NewUEChannel(carrierHz float64, r *rng.Source) *Model {
	mean := s.drawMeanSINR(r)
	var mob *Mobility
	if s.RadiusM > 0 {
		mob = NewMobility(s.RadiusM, s.SpeedMPS, r.Fork())
	}
	return New(Config{
		MeanSINRdB:   mean,
		SpeedMPS:     s.SpeedMPS,
		CarrierHz:    carrierHz,
		NumSubbands:  s.NumSubbands,
		Mobility:     mob,
		PathLossExp:  s.PathLossExp,
		ShadowingStd: s.ShadowingStd,
	}, r.Fork())
}

func (s Scenario) drawMeanSINR(r *rng.Source) float64 {
	total := 0.0
	for _, c := range s.Classes {
		total += c.Weight
	}
	u := r.Float64() * total
	for _, c := range s.Classes {
		if u < c.Weight {
			return r.Normal(c.MeanDB, c.StdDB)
		}
		u -= c.Weight
	}
	last := s.Classes[len(s.Classes)-1]
	return r.Normal(last.MeanDB, last.StdDB)
}
