package core

import (
	"fmt"
	"math"
	"testing"

	"outran/internal/mac"
	"outran/internal/phy"
	"outran/internal/rng"
	"outran/internal/sim"
)

// decision is one OnDecision record.
type decision struct {
	now                  sim.Time
	rb, best, sel        int
	bestM, selM          uint64 // math.Float64bits
	selLevel, candidates int
}

func recordDecisions(out *[]decision) DecisionFunc {
	return func(now sim.Time, rb, best, sel int, bestM, selM float64, selLevel, candidates int) {
		*out = append(*out, decision{now, rb, best, sel, math.Float64bits(bestM), math.Float64bits(selM), selLevel, candidates})
	}
}

// refInterUser is the per-RB reference: the pre-run Algorithm 1 loop,
// evaluating every user's metric on every RB.
type refInterUser struct {
	inner     mac.MetricFunc
	eps       float64
	topK      int
	decisions uint64
	overrides uint64
	sacSum    float64
	log       []decision
}

func (s *refInterUser) allocate(now sim.Time, users []*mac.User, grid phy.Grid) []int {
	owner := make([]int, grid.NumRB)
	metrics := make([]float64, len(users))
	for b := range owner {
		owner[b] = -1
		best, mMax := -1, 0.0
		for ui, u := range users {
			metrics[ui] = 0
			if !u.Buffer.Backlogged() {
				continue
			}
			m := s.inner(u, b, grid, now)
			metrics[ui] = m
			if m > 0 && (best == -1 || m > mMax) {
				best, mMax = ui, m
			}
		}
		if best == -1 {
			continue
		}
		sel, selPrio, selMetric := best, users[best].Buffer.TopPriority(), mMax
		candidates := 1
		if s.topK > 0 {
			sel, selPrio, selMetric = refTopK(s.topK, users, metrics, best)
			candidates = min(s.topK, len(users))
		} else if s.eps > 0 {
			candidates = 0
			floor := (1 - s.eps) * mMax
			for ui, u := range users {
				if metrics[ui] <= 0 || metrics[ui] < floor {
					continue
				}
				candidates++
				p := u.Buffer.TopPriority()
				if p < selPrio || (p == selPrio && metrics[ui] > selMetric) {
					sel, selPrio, selMetric = ui, p, metrics[ui]
				}
			}
		}
		owner[b] = sel
		s.decisions++
		if sel != best {
			s.overrides++
			s.sacSum += (mMax - selMetric) / mMax
		}
		s.log = append(s.log, decision{now, b, best, sel, math.Float64bits(mMax), math.Float64bits(selMetric), selPrio, candidates})
	}
	return owner
}

// refTopK is the top-K candidate selection: a partial selection sort
// over the positive metrics, then priority re-selection.
func refTopK(k int, users []*mac.User, metrics []float64, best int) (int, int, float64) {
	type cand struct {
		ui int
		m  float64
	}
	var cands []cand
	for ui := range users {
		if metrics[ui] > 0 {
			cands = append(cands, cand{ui, metrics[ui]})
		}
	}
	k = min(k, len(cands))
	for i := 0; i < k; i++ {
		maxJ := i
		for j := i + 1; j < len(cands); j++ {
			if cands[j].m > cands[maxJ].m {
				maxJ = j
			}
		}
		cands[i], cands[maxJ] = cands[maxJ], cands[i]
	}
	sel, selPrio, selMetric := best, users[best].Buffer.TopPriority(), metrics[best]
	for i := 0; i < k; i++ {
		p := users[cands[i].ui].Buffer.TopPriority()
		if p < selPrio || (p == selPrio && cands[i].m > selMetric) {
			sel, selPrio, selMetric = cands[i].ui, p, cands[i].m
		}
	}
	return sel, selPrio, selMetric
}

// randomRunUsers draws backlogged and idle users with mixed MLFQ
// levels over the given subband counts.
func randomRunUsers(r *rng.Source, n int, nsbs []int) []*mac.User {
	users := make([]*mac.User, n)
	for i := range users {
		u := &mac.User{ID: mac.UserID(i), AvgTputBps: r.LogUniform(1e2, 1e7)}
		u.SubbandCQI = make([]phy.CQI, nsbs[r.Intn(len(nsbs))])
		for sb := range u.SubbandCQI {
			if r.Float64() < 0.85 {
				u.SubbandCQI[sb] = phy.CQI(1 + r.Intn(15))
			}
		}
		if r.Float64() < 0.7 {
			u.Buffer.TotalBytes = 1 + r.Intn(100000)
			u.Buffer.PerPriority = make([]int, 4)
			u.Buffer.PerPriority[r.Intn(4)] = u.Buffer.TotalBytes
		}
		users[i] = u
	}
	return users
}

// TestInterUserRunsMatchPerRB checks OutRAN's run-based Allocate
// against the per-RB reference in every candidate-set mode: the same
// RB owners, the same OnDecision record sequence, and bit-equal audit
// counters, over consecutive TTIs so the running audit sums compare
// too.
func TestInterUserRunsMatchPerRB(t *testing.T) {
	layouts := []struct {
		name string
		rbs  []int
		nsbs []int
	}{
		{"uniform", []int{25, 50, 100}, []int{13}},
		{"mixed-counts", []int{25, 50, 100}, []int{13, 9, 4, 1}},
		{"more-subbands-than-rbs", []int{1, 3, 6, 7}, []int{13, 9, 200}},
		{"empty-subbands", []int{6, 25}, []int{0, 13, 0, 5}},
		{"indivisible", []int{7, 25, 49, 101}, []int{3, 6, 13, 17}},
	}
	modes := []struct {
		name string
		make func() *InterUser
		ref  func() *refInterUser
	}{
		{"eps0", func() *InterUser { s, _ := NewInterUser(mac.PFMetric, "PF", 0); return s },
			func() *refInterUser { return &refInterUser{inner: mac.PFMetric} }},
		{"eps0.2", func() *InterUser { s, _ := NewInterUser(mac.PFMetric, "PF", 0.2); return s },
			func() *refInterUser { return &refInterUser{inner: mac.PFMetric, eps: 0.2} }},
		{"eps1-MT", func() *InterUser { s, _ := NewInterUser(mac.MTMetric, "MT", 1); return s },
			func() *refInterUser { return &refInterUser{inner: mac.MTMetric, eps: 1} }},
		{"topK2", func() *InterUser { s, _ := NewInterUser(mac.PFMetric, "PF", 0); s.TopK = 2; return s },
			func() *refInterUser { return &refInterUser{inner: mac.PFMetric, topK: 2} }},
		{"StrictMLFQ", StrictMLFQ,
			func() *refInterUser { return &refInterUser{inner: mac.PFMetric, eps: 1} }},
	}
	for li, lay := range layouts {
		for _, mode := range modes {
			t.Run(lay.name+"/"+mode.name, func(t *testing.T) {
				r := rng.New(uint64(300 + li))
				s, ref := mode.make(), mode.ref()
				var got []decision
				s.OnDecision = recordDecisions(&got)
				for tti := 0; tti < 100; tti++ {
					g := phy.Grid{Numerology: phy.Mu0, NumRB: lay.rbs[r.Intn(len(lay.rbs))], CarrierHz: 2e9}
					users := randomRunUsers(r, 1+r.Intn(16), lay.nsbs)
					now := sim.Time(tti) * sim.Millisecond
					want := ref.allocate(now, users, g)
					owners := s.Allocate(now, users, g).RBOwner
					if fmt.Sprint(owners) != fmt.Sprint(want) {
						t.Fatalf("TTI %d, %d RBs: owners %v, per-RB reference %v", tti, g.NumRB, owners, want)
					}
				}
				if len(got) != len(ref.log) {
					t.Fatalf("%d OnDecision records, reference %d", len(got), len(ref.log))
				}
				for i := range got {
					if got[i] != ref.log[i] {
						t.Fatalf("OnDecision record %d: %+v, reference %+v", i, got[i], ref.log[i])
					}
				}
				d, o, sac := s.Audit()
				if d != ref.decisions || o != ref.overrides || math.Float64bits(sac) != math.Float64bits(ref.sacSum) {
					t.Fatalf("audit (%d, %d, %x), reference (%d, %d, %x)", d, o, math.Float64bits(sac),
						ref.decisions, ref.overrides, math.Float64bits(ref.sacSum))
				}
				if ref.overrides == 0 && mode.name != "eps0" {
					t.Fatal("no overrides: the case does not exercise re-selection")
				}
			})
		}
	}
}
