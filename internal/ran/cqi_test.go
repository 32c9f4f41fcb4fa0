package ran

import (
	"fmt"
	"strings"
	"testing"

	"outran/internal/core"
	"outran/internal/mac"
	"outran/internal/phy"
	"outran/internal/sim"
	"outran/internal/snapshot"
	"outran/internal/workload"
)

// TestGoldenCellWorkCounts pins the exact PHY and MAC work of the
// TestGoldenSummaryPin cell: CQI reports taken, subband CQI
// evaluations, and scheduler metric evaluations. Evaluating every
// report when it was taken cost 13 subband evaluations for each of
// the 52,000 periodic reports (676,000), and deciding every RB
// separately cost 276,600 metric evaluations. Deferred reports read
// only 1,131 of the 52,020 reports (2.2%), and one decision per
// subband run cuts the metric work by 100/13. The counts are
// deterministic, so any drift is a code change: more work is a
// regression, less work must keep TestGoldenSummaryPin.
func TestGoldenCellWorkCounts(t *testing.T) {
	var reports, metricEvals uint64
	h := goldenHarness()
	h.Setup = func(c *Cell) error {
		c.SetFaultHooks(FaultHooks{DropCQIReport: func(int, sim.Time) bool { reports++; return false }})
		iu := c.sched.(*core.InterUser)
		inner := iu.Inner
		iu.Inner = func(u *mac.User, rb int, g phy.Grid, now sim.Time) float64 {
			metricEvals++
			return inner(u, rb, g, now)
		}
		return nil
	}
	cell, err := h.Run()
	if err != nil {
		t.Fatal(err)
	}
	const (
		wantReports     = 52000
		wantCQIEvals    = 14703 // 1,131 reports × 13 subbands
		wantMetricEvals = 35958
	)
	if reports != wantReports || cell.cqiEvals != wantCQIEvals || metricEvals != wantMetricEvals {
		t.Fatalf("work counts: %d reports, %d subband CQI evaluations, %d metric evaluations; pinned %d, %d, %d",
			reports, cell.cqiEvals, metricEvals, wantReports, wantCQIEvals, wantMetricEvals)
	}
}

// subbandCQIs renders every user's reported subband CQIs as the MAC
// sees them.
func subbandCQIs(c *Cell) string {
	var b strings.Builder
	for _, u := range c.Users() {
		fmt.Fprintln(&b, u.SubbandCQI)
	}
	return b.String()
}

// TestCheckpointWithOutstandingReports snapshots a cell while CQI
// reports are still unevaluated. The snapshot must carry their CQIs,
// and the restored cell must drop the report its own construction
// left outstanding: otherwise the first read after the restore
// evaluates the channel at time 0 instead of the snapshot's report.
// Cell.Users, read before the snapshot, must show the same CQIs.
func TestCheckpointWithOutstandingReports(t *testing.T) {
	h := resumeScenario(SchedOutRAN, UM)
	h.Config.Workload = workload.PoissonSpec("lte", 0.2) // idle UEs leave reports unread
	// Mid-period: reports were taken at 240 ms and not all read.
	mid := 242*sim.Millisecond + 300*sim.Microsecond
	ref := runUninterrupted(t, h)

	cellA, err := h.Build()
	if err != nil {
		t.Fatal(err)
	}
	cellA.Run(mid)
	due := 0
	for _, ue := range cellA.ues {
		if ue.cqiDue {
			due++
		}
	}
	if due == 0 {
		t.Fatal("no report outstanding at the checkpoint; the test would be vacuous")
	}
	// Users evaluates the outstanding reports; the snapshot must carry
	// the same CQIs.
	wantCQI := subbandCQIs(cellA)
	img, err := cellA.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	a, err := snapshot.Open(img)
	if err != nil {
		t.Fatal(err)
	}
	cellB, err := NewCell(h.Config)
	if err != nil {
		t.Fatal(err)
	}
	if err := cellB.RestoreSnapshot(a); err != nil {
		t.Fatal(err)
	}
	if gotCQI := subbandCQIs(cellB); gotCQI != wantCQI {
		t.Fatalf("%d reports outstanding at the checkpoint: restored MAC view differs\n  checkpointed: %s\n  restored:     %s", due, wantCQI, gotCQI)
	}
	res := runWithResume(t, h, mid)
	compareRuns(t, ref, res)
}
