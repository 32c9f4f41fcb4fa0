package transport

import (
	"fmt"

	"outran/internal/sim"
	"outran/internal/snapshot"
)

// Snapshot section tags (see snapshot.Encoder.Mark).
const (
	tagSender   = 0x7301
	tagReceiver = 0x7302
)

// Snapshot encodes the sender's full mutable state, including the
// congestion controller, the RTT estimator, the Karn send-time window
// (in ascending seq order), and the live
// RTO timer arm. Construction inputs (cfg, tuple, size, callbacks)
// are not encoded: the restore side rebuilds the sender from the same
// flow metadata and overlays this state.
func (s *Sender) Snapshot(e *snapshot.Encoder) {
	e.Mark(tagSender)
	e.I64(s.nextSeq)
	e.I64(s.highestAcked)
	e.F64(s.cwnd)
	e.F64(s.ssthresh)
	e.F64(s.cubic.wMax)
	e.I64(int64(s.cubic.epochStart))
	e.F64(s.cubic.k)
	e.F64(s.cubic.ackCount)
	e.Bool(s.cubic.started)
	e.Int(s.dupAcks)
	e.Bool(s.inRecovery)
	e.I64(s.recoverSeq)
	e.I64(s.rtoRecover)
	e.I64(int64(s.srtt))
	e.I64(int64(s.rttvar))
	e.I64(int64(s.rto))
	running, expires, seq := s.rtoTimer.SnapArm()
	e.Bool(running)
	e.I64(int64(expires))
	e.U64(seq)
	live := s.sent[s.sentHead:]
	e.U32(uint32(len(live)))
	for _, r := range live {
		e.I64(r.seq)
		e.I64(int64(r.at))
	}
	e.Bool(s.completed)
	e.Int(s.retransmits)
	e.Int(s.timeouts)
	e.Int(s.segsSent)
}

// Restore overlays snapshotted state onto a freshly constructed
// sender and re-registers the RTO timer arm with its exact original
// (expiry, seq). It returns the decoder's sticky error, if any.
func (s *Sender) Restore(d *snapshot.Decoder) error {
	d.Expect(tagSender)
	s.nextSeq = d.I64()
	s.highestAcked = d.I64()
	s.cwnd = d.F64()
	s.ssthresh = d.F64()
	s.cubic.wMax = d.F64()
	s.cubic.epochStart = sim.Time(d.I64())
	s.cubic.k = d.F64()
	s.cubic.ackCount = d.F64()
	s.cubic.started = d.Bool()
	s.dupAcks = d.Int()
	s.inRecovery = d.Bool()
	s.recoverSeq = d.I64()
	s.rtoRecover = d.I64()
	s.srtt = sim.Time(d.I64())
	s.rttvar = sim.Time(d.I64())
	s.rto = sim.Time(d.I64())
	running := d.Bool()
	expires := sim.Time(d.I64())
	armSeq := d.U64()
	n := d.Count(1 << 24)
	s.sent, s.sentHead = s.sent[:0], 0
	for i := 0; i < n; i++ {
		k := d.I64()
		v := sim.Time(d.I64())
		if d.Err() != nil {
			break
		}
		if len(s.sent) > 0 && k <= s.sent[len(s.sent)-1].seq {
			d.Fail(fmt.Errorf("%w: send-time window not in ascending seq order", snapshot.ErrCorrupt))
			break
		}
		s.sent = append(s.sent, sentRec{k, v})
	}
	s.completed = d.Bool()
	s.retransmits = d.Int()
	s.timeouts = d.Int()
	s.segsSent = d.Int()
	if err := d.Err(); err != nil {
		return fmt.Errorf("transport: restoring sender: %w", err)
	}
	s.rtoTimer.RestoreArm(running, expires, armSeq)
	return nil
}

// Snapshot encodes the receiver's reassembly state.
func (r *Receiver) Snapshot(e *snapshot.Encoder) {
	e.Mark(tagReceiver)
	e.U32(uint32(len(r.ooo)))
	for _, iv := range r.ooo {
		e.I64(iv.lo)
		e.I64(iv.hi)
	}
	e.I64(r.cumAck)
	e.I64(r.bytesRecvd)
	e.I64(int64(r.lastData))
}

// Restore overlays snapshotted reassembly state.
func (r *Receiver) Restore(d *snapshot.Decoder) error {
	d.Expect(tagReceiver)
	n := d.Count(1 << 24)
	if n > 0 {
		r.ooo = make([]interval, 0, n)
	}
	for i := 0; i < n; i++ {
		lo := d.I64()
		hi := d.I64()
		if d.Err() != nil {
			break
		}
		r.ooo = append(r.ooo, interval{lo, hi})
	}
	r.cumAck = d.I64()
	r.bytesRecvd = d.I64()
	r.lastData = sim.Time(d.I64())
	if err := d.Err(); err != nil {
		return fmt.Errorf("transport: restoring receiver: %w", err)
	}
	return nil
}
