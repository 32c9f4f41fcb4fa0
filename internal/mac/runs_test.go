package mac

import (
	"fmt"
	"testing"

	"outran/internal/phy"
	"outran/internal/rng"
	"outran/internal/sim"
)

// runCases are the subband layouts the run-based schedulers must
// handle: the uniform layout every cell uses today, mixed subband
// counts, more subbands than RBs, users without subbands, and grids
// the subband count does not divide.
var runCases = []struct {
	name  string
	rbs   []int
	nsbs  []int
	users int
}{
	{"uniform", []int{25, 50, 100}, []int{13}, 20},
	{"mixed-counts", []int{25, 50, 100}, []int{13, 9, 4, 1}, 12},
	{"more-subbands-than-rbs", []int{1, 3, 6, 7}, []int{13, 9, 200}, 8},
	{"empty-subbands", []int{6, 25}, []int{0, 13, 0, 5}, 8},
	{"indivisible", []int{7, 25, 49, 101}, []int{3, 6, 13, 17}, 10},
}

// randomUsers draws one scheduling instant: CQIs with deep fades,
// empty buffers, QoS traffic near its budget, unknown oracle sizes
// and spread-out PF averages.
func randomUsers(r *rng.Source, n int, nsbs []int, now sim.Time) []*User {
	users := make([]*User, n)
	for i := range users {
		u := &User{ID: UserID(i), AvgTputBps: r.LogUniform(1e2, 1e7)}
		u.SubbandCQI = make([]phy.CQI, nsbs[r.Intn(len(nsbs))])
		for sb := range u.SubbandCQI {
			if r.Float64() < 0.15 {
				continue // CQI 0: out of range
			}
			u.SubbandCQI[sb] = phy.CQI(1 + r.Intn(15))
		}
		if r.Float64() < 0.7 {
			u.Buffer.TotalBytes = 1 + r.Intn(100000)
			u.Buffer.PerPriority = make([]int, 4)
			u.Buffer.PerPriority[r.Intn(4)] = u.Buffer.TotalBytes
			u.Buffer.OracleMinRemaining = -1
			if r.Float64() < 0.7 {
				u.Buffer.OracleMinRemaining = int64(1 + r.Intn(1<<20))
			}
			if r.Float64() < 0.3 {
				u.Buffer.QoSBytes = 1 + r.Intn(10000)
				u.Buffer.QoSDelayBudget = 50 * sim.Millisecond
				u.Buffer.QoSHOLArrival = now - sim.Time(r.Intn(int(80*sim.Millisecond)))
			}
		}
		u.LastServed = now - sim.Time(r.Intn(int(sim.Second)))
		users[i] = u
	}
	return users
}

// The per-RB reference allocators below are the pre-run loops: one
// metric evaluation per user per RB.

func refMetricAllocate(metric MetricFunc, now sim.Time, users []*User, grid phy.Grid) []int {
	owner := make([]int, grid.NumRB)
	for b := range owner {
		best, bestM, fallback, fallbackM := -1, 0.0, -1, 0.0
		for ui, u := range users {
			if !u.Buffer.Backlogged() {
				continue
			}
			m := metric(u, b, grid, now)
			if fallback == -1 || m > fallbackM {
				fallback, fallbackM = ui, m
			}
			if m <= 0 {
				continue
			}
			if best == -1 || m > bestM {
				best, bestM = ui, m
			}
		}
		if best == -1 {
			best = fallback
		}
		owner[b] = best
	}
	return owner
}

func refPSS(now sim.Time, users []*User, grid phy.Grid) []int {
	owner := make([]int, grid.NumRB)
	for b := range owner {
		best, bestM, bestQoS := -1, 0.0, false
		for ui, u := range users {
			if !u.Buffer.Backlogged() {
				continue
			}
			m := PFMetric(u, b, grid, now)
			if m <= 0 {
				continue
			}
			qos := u.Buffer.QoSBytes > 0
			if qos && !bestQoS {
				best, bestM, bestQoS = ui, m, true
				continue
			}
			if qos == bestQoS && (best == -1 || m > bestM) {
				best, bestM = ui, m
			}
		}
		owner[b] = best
	}
	return owner
}

func refSRJF(users []*User, grid phy.Grid) []int {
	owner := make([]int, grid.NumRB)
	for b := range owner {
		owner[b] = -1
	}
	best, bestRem := -1, int64(0)
	for ui, u := range users {
		if !u.Buffer.Backlogged() {
			continue
		}
		rem := u.Buffer.OracleMinRemaining
		if rem < 0 {
			rem = 1 << 62
		}
		if best == -1 || rem < bestRem {
			best, bestRem = ui, rem
		}
	}
	if best == -1 {
		return owner
	}
	for b := range owner {
		if users[best].CQIForRB(b, grid.NumRB) != 0 {
			owner[b] = best
		}
	}
	return owner
}

// TestRunAllocateMatchesPerRB checks every MAC scheduler against its
// per-RB reference over randomized instants: deciding once per run
// must give every RB the owner the per-RB loop gives it.
func TestRunAllocateMatchesPerRB(t *testing.T) {
	cqaMetric := func(u *User, rb int, g phy.Grid, now sim.Time) float64 {
		return PFMetric(u, rb, g, now) * cqaWeight(u, now)
	}
	scheds := []struct {
		s   Scheduler
		ref func(now sim.Time, users []*User, g phy.Grid) []int
	}{
		{NewPF(), func(now sim.Time, us []*User, g phy.Grid) []int { return refMetricAllocate(PFMetric, now, us, g) }},
		{NewMT(), func(now sim.Time, us []*User, g phy.Grid) []int { return refMetricAllocate(MTMetric, now, us, g) }},
		{NewRR(), func(now sim.Time, us []*User, g phy.Grid) []int { return refMetricAllocate(NewRR().Metric, now, us, g) }},
		{&CQA{}, func(now sim.Time, us []*User, g phy.Grid) []int { return refMetricAllocate(cqaMetric, now, us, g) }},
		{&PSS{}, refPSS},
		{&SRJF{}, func(_ sim.Time, us []*User, g phy.Grid) []int { return refSRJF(us, g) }},
	}
	for ci, tc := range runCases {
		t.Run(tc.name, func(t *testing.T) {
			r := rng.New(uint64(100 + ci))
			for trial := 0; trial < 150; trial++ {
				g := phy.Grid{Numerology: phy.Mu0, NumRB: tc.rbs[r.Intn(len(tc.rbs))], CarrierHz: 2e9}
				now := sim.Time(1+trial) * sim.Second
				users := randomUsers(r, 1+r.Intn(tc.users), tc.nsbs, now)
				for _, sc := range scheds {
					want := sc.ref(now, users, g)
					got := sc.s.Allocate(now, users, g).RBOwner
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%s, trial %d, %d RBs: owners %v, per-RB reference %v", sc.s.Name(), trial, g.NumRB, got, want)
					}
				}
			}
		})
	}
}

// TestRunEndIsMaximalRun compares RunEnd with a brute-force scan: the
// run ends at the first RB where some user's subband changes.
func TestRunEndIsMaximalRun(t *testing.T) {
	for ci, tc := range runCases {
		r := rng.New(uint64(200 + ci))
		for trial := 0; trial < 100; trial++ {
			numRB := tc.rbs[r.Intn(len(tc.rbs))]
			users := randomUsers(r, 1+r.Intn(tc.users), tc.nsbs, 0)
			for rb := 0; rb < numRB; rb++ {
				want := rb + 1
				for ; want < numRB; want++ {
					same := true
					for _, u := range users {
						if n := len(u.SubbandCQI); n > 0 && SubbandOf(want, n, numRB) != SubbandOf(rb, n, numRB) {
							same = false
						}
					}
					if !same {
						break
					}
				}
				if got := RunEnd(users, rb, numRB); got != want {
					t.Fatalf("%s: RunEnd(rb=%d, %d RBs) = %d, brute force %d", tc.name, rb, numRB, got, want)
				}
			}
		}
	}
}
