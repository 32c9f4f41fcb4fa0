package transport

import (
	"bytes"
	"errors"
	"testing"

	"outran/internal/ip"
	"outran/internal/sim"
	"outran/internal/snapshot"
)

// TestKarnSkipsRetransmittedSegment: a flow that fits the initial
// window loses its first segment once. The single cumulative ACK
// covers the retransmission, so Karn's rule leaves no valid RTT
// sample; sampling the original send would report the recovery time.
func TestKarnSkipsRetransmittedSegment(t *testing.T) {
	p := newPipe(t, 10*1400, Config{})
	dropped := false
	p.drop = func(seq int64) bool {
		if !dropped && seq == 0 {
			dropped = true
			return true
		}
		return false
	}
	done := false
	p.s.OnComplete = func() { done = true }
	p.s.Start()
	p.eng.RunUntil(10 * sim.Second)
	if !done || p.s.Retransmits() == 0 {
		t.Fatalf("done %v after %d retransmits; want a recovered loss", done, p.s.Retransmits())
	}
	if srtt := p.s.SRTT(); srtt != 0 {
		t.Fatalf("SRTT %v sampled from a retransmitted segment", srtt)
	}
}

// TestSenderSnapshotWindow round-trips a sender mid-flight: the Karn
// window encodes as ascending (seq, first-send time) pairs, restores
// into a fresh sender byte-identically, and a window out of seq order
// is rejected as corrupt.
func TestSenderSnapshotWindow(t *testing.T) {
	p := newPipe(t, 1<<20, Config{})
	p.s.Start()
	p.eng.RunUntil(55 * sim.Millisecond)
	if len(p.s.sent)-p.s.sentHead < 2 {
		t.Fatal("fewer than two segments in flight; the window is not exercised")
	}
	var e snapshot.Encoder
	p.s.Snapshot(&e)
	img := e.Bytes()

	fresh := func() *Sender {
		return NewSender(&sim.Engine{}, Config{}, ip.FiveTuple{SrcPort: 443, DstPort: 1000, Proto: ip.ProtoTCP}, 1<<20)
	}
	s2 := fresh()
	if err := s2.Restore(snapshot.NewDecoder(img)); err != nil {
		t.Fatal(err)
	}
	var e2 snapshot.Encoder
	s2.Snapshot(&e2)
	if !bytes.Equal(img, e2.Bytes()) {
		t.Fatal("snapshot -> restore -> snapshot is not byte-identical")
	}

	// Swap the first two window entries (each 16 bytes) in a copy.
	live := p.s.sent[p.s.sentHead:]
	var prefix snapshot.Encoder
	prefix.I64(live[0].seq)
	prefix.I64(int64(live[0].at))
	off := bytes.Index(img, prefix.Bytes())
	if off < 0 {
		t.Fatal("window entry not found in the encoding")
	}
	bad := append([]byte(nil), img...)
	copy(bad[off:off+16], img[off+16:off+32])
	copy(bad[off+16:off+32], img[off:off+16])
	if err := fresh().Restore(snapshot.NewDecoder(bad)); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("restoring a descending window: err %v, want ErrCorrupt", err)
	}
}
