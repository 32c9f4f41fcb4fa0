package ran

import (
	"bytes"
	"fmt"
	"sort"

	"outran/internal/core"
	"outran/internal/ip"
	"outran/internal/rlc"
	"outran/internal/sim"
	"outran/internal/snapshot"
	"outran/internal/transport"
)

// Structural sentinels for the cell snapshot walk.
const (
	tagConfig  = 0x2a01
	tagEngine  = 0x2a02
	tagCell    = 0x2a03
	tagUE      = 0x2a05
	tagFlow    = 0x2a06
	tagPending = 0x2a07
	tagHarqTB  = 0x2a08
)

// pendingKind classifies an in-flight scheduled event so a restore can
// rebuild its closure from serialisable payload. Zero is reserved so a
// zeroed byte never decodes as a valid kind.
type pendingKind uint8

const (
	// pkArrival is a workload flow arrival (ScheduleSource).
	pkArrival pendingKind = iota + 1
	// pkPacket is a downlink packet crossing the wired backhaul.
	pkPacket
	// pkAck is a transport ACK crossing the uplink path.
	pkAck
	// pkTB is a transport block one TTI out on the air interface.
	pkTB
	// pkAMStatus is an RLC AM status PDU on the uplink.
	pkAMStatus
	// pkTrackerReset / pkTrackerFreeze are the measurement-window
	// boundaries (ran.Harness).
	pkTrackerReset
	pkTrackerFreeze
	// pkExternal is an opaque event owned by an attached subsystem
	// (fault injection); its closure is rebuilt from the key by the
	// function registered with SetExternalRebuild.
	pkExternal
)

// pendingEvent is the serialisable description of one scheduled event.
// It is a fat by-value struct — only the fields its kind documents are
// meaningful — so recording an event costs a map insert, no allocation.
type pendingEvent struct {
	kind   pendingKind
	at     sim.Time
	ue     int
	pkt    ip.Packet
	tuple  ip.FiveTuple
	rel    int64
	tb     *harqTB
	status *rlc.StatusPDU
	size   int64
	incast bool
	skip   bool
	key    uint64
}

// EnableSnapshots turns on the pending-event registry that makes the
// cell checkpointable. It must be called immediately after NewCell,
// before any workload, tracker boundary, or external event is
// scheduled — otherwise those events would be invisible to a
// checkpoint and silently dropped on restore; the guard panics to make
// that wiring bug loud. With snapshots off (the default) every
// recorded-schedule site degrades to a plain Engine.After/At call.
func (c *Cell) EnableSnapshots() {
	if c.snapEnabled {
		return
	}
	want := 2 // TTI + CQI periodics from NewCell
	if c.tickReset != nil {
		want = 3
	}
	if c.Eng.Now() != 0 || c.Eng.Pending() != want {
		panic("ran: EnableSnapshots must be called immediately after NewCell, before any workload is scheduled")
	}
	c.snapEnabled = true
	c.pending = make(map[uint64]pendingEvent)
}

// recAfter schedules fn to run d from now, recording the event in the
// pending registry when snapshots are enabled. The recorded wrapper
// unregisters the event at fire time via the engine's current seq, so
// the registry always holds exactly the still-pending set.
//
// The disabled path adds no work beyond the Engine.After call itself —
// pendingEvent is passed by value and never escapes — which keeps the
// hot-path alloc contracts intact for every run that never checkpoints.
func (c *Cell) recAfter(d sim.Time, pe pendingEvent, fn func()) {
	if !c.snapEnabled {
		c.Eng.After(d, fn)
		return
	}
	c.Eng.After(d, func() {
		delete(c.pending, c.Eng.CurSeq())
		fn()
	})
	if d < 0 {
		d = 0
	}
	pe.at = c.Eng.Now() + d
	c.pending[c.Eng.LastSeq()] = pe
}

// recAt is recAfter for absolute-time scheduling.
func (c *Cell) recAt(at sim.Time, pe pendingEvent, fn func()) {
	if !c.snapEnabled {
		c.Eng.At(at, fn)
		return
	}
	c.Eng.At(at, func() {
		delete(c.pending, c.Eng.CurSeq())
		fn()
	})
	pe.at = at
	c.pending[c.Eng.LastSeq()] = pe
}

// registerRestored re-registers a snapshotted event with its exact
// original (at, seq) so same-time tie-breaks replay identically, and
// puts it back in the registry so a later checkpoint still sees it.
func (c *Cell) registerRestored(seq uint64, pe pendingEvent, fn func()) {
	c.Eng.ScheduleExact(pe.at, seq, func() {
		delete(c.pending, c.Eng.CurSeq())
		fn()
	})
	c.pending[seq] = pe
}

// ScheduleTrackerReset schedules the measurement-window reset as a
// recorded event so it survives a checkpoint (ran.Harness uses this
// instead of a raw Engine.At).
func (c *Cell) ScheduleTrackerReset(at sim.Time) {
	c.recAt(at, pendingEvent{kind: pkTrackerReset}, c.Tracker.Reset)
}

// ScheduleTrackerFreeze schedules the measurement-window freeze as a
// recorded event.
func (c *Cell) ScheduleTrackerFreeze(at sim.Time) {
	c.recAt(at, pendingEvent{kind: pkTrackerFreeze}, c.Tracker.Freeze)
}

// ScheduleExternal schedules an event owned by an attached subsystem
// (fault injection) at an absolute time, recorded under an opaque key.
// On restore the closure is rebuilt by the SetExternalRebuild hook from
// the same key, after the subsystem has re-attached its own state.
func (c *Cell) ScheduleExternal(at sim.Time, key uint64, fn func()) {
	c.recAt(at, pendingEvent{kind: pkExternal, key: key}, fn)
}

// ScheduleExternalAfter is ScheduleExternal with a relative delay.
func (c *Cell) ScheduleExternalAfter(d sim.Time, key uint64, fn func()) {
	c.recAfter(d, pendingEvent{kind: pkExternal, key: key}, fn)
}

// SetExternalRebuild registers the closure factory RestoreSnapshot uses
// to reconstruct pkExternal events. A snapshot that holds external
// events fails to restore until one is registered.
func (c *Cell) SetExternalRebuild(f func(key uint64) func()) { c.extRebuild = f }

// configFingerprint renders the effective (defaulted) configuration to
// a canonical string. Every field is plain data — no maps, pointers or
// function values — so the rendering is byte-stable across processes;
// restore compares it wholesale rather than diffing field by field.
func (c *Cell) configFingerprint() []byte {
	return []byte(fmt.Sprintf("%+v", c.cfg))
}

// sortedPendingSeqs returns the registry's keys in ascending seq order
// so the encoded pending set is independent of map iteration order.
func (c *Cell) sortedPendingSeqs() []uint64 {
	seqs := make([]uint64, 0, len(c.pending))
	//outran:orderfree collected seqs are sorted before use
	for s := range c.pending {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs
}

func putPeriodic(e *snapshot.Encoder, p *sim.Periodic) {
	stopped, nextAt, seq := p.Snap()
	e.Bool(stopped)
	e.I64(int64(nextAt))
	e.U64(seq)
}

type periodicArm struct {
	stopped bool
	nextAt  sim.Time
	seq     uint64
}

func getPeriodicArm(d *snapshot.Decoder) periodicArm {
	var a periodicArm
	a.stopped = d.Bool()
	a.nextAt = sim.Time(d.I64())
	a.seq = d.U64()
	return a
}

// putHarqTB encodes one transport block through the UE's shared RLC
// encoding context, so PDUs the TB shares with the AM retransmission
// window serialise as references to one instance.
func putHarqTB(se *rlc.SnapEnc, tb *harqTB) {
	e := se.E
	e.Mark(tagHarqTB)
	e.U32(uint32(len(tb.pdus)))
	for _, p := range tb.pdus {
		se.PDU(p)
	}
	e.Int(tb.bits)
	e.Int(tb.attempts)
	e.I64(int64(tb.readyAt))
	e.F64(tb.reqSINR)
	e.U32(uint32(len(tb.subbands)))
	for _, sb := range tb.subbands {
		e.Int(sb)
	}
	e.Int(tb.waited)
}

func getHarqTB(sd *rlc.SnapDec) *harqTB {
	d := sd.D
	d.Expect(tagHarqTB)
	tb := &harqTB{}
	n := d.Count(1 << 16)
	for i := 0; i < n && d.Err() == nil; i++ {
		if p := sd.PDU(); p != nil {
			tb.pdus = append(tb.pdus, p)
		}
	}
	tb.bits = d.Int()
	tb.attempts = d.Int()
	tb.readyAt = sim.Time(d.I64())
	tb.reqSINR = d.F64()
	ns := d.Count(1 << 16)
	for i := 0; i < ns && d.Err() == nil; i++ {
		tb.subbands = append(tb.subbands, d.Int())
	}
	tb.waited = d.Int()
	if d.Err() != nil {
		return nil
	}
	return tb
}

// SnapshotTo appends the cell's complete mid-run state to the builder
// as the sections config/engine/cell/metrics/ue<i>/pending. The cell
// must have snapshots enabled; flows started with persistent-connection
// or completion-callback options cannot be serialised and make the
// whole snapshot fail (checkpointed runs use the plain workload path).
func (c *Cell) SnapshotTo(b *snapshot.Builder) error {
	if !c.snapEnabled {
		return fmt.Errorf("ran: snapshots not enabled on this cell (EnableSnapshots before scheduling work)")
	}
	for _, ue := range c.ues {
		//outran:orderfree error check only; no encoding happens in this loop
		for tuple, fr := range ue.flows {
			if fr.onComplete != nil || fr.keep || fr.seqBase != 0 {
				return fmt.Errorf("ran: flow %v on UE %d uses persistent-connection or completion-callback options and cannot be checkpointed", tuple, ue.id)
			}
		}
	}
	seqs := c.sortedPendingSeqs()
	// The MAC view is encoded with every CQI report evaluated.
	c.readAllCQI()

	var ce snapshot.Encoder
	ce.Mark(tagConfig)
	ce.Bytes32(c.configFingerprint())
	b.Add("config", &ce)

	var ee snapshot.Encoder
	ee.Mark(tagEngine)
	now, seq, nEvents := c.Eng.SnapState()
	ee.I64(int64(now))
	ee.U64(seq)
	ee.U64(nEvents)
	putPeriodic(&ee, c.tickTTI)
	putPeriodic(&ee, c.tickCQI)
	ee.Bool(c.tickReset != nil)
	if c.tickReset != nil {
		putPeriodic(&ee, c.tickReset)
	}
	b.Add("engine", &ee)

	var le snapshot.Encoder
	le.Mark(tagCell)
	st := c.r.State()
	for _, w := range st {
		le.U64(w)
	}
	le.U64(c.sduSeq)
	le.U16(c.nextPort)
	le.I64(int64(c.rttSum))
	le.Int(c.rttCnt)
	le.Int(c.retired.evictions)
	le.U64(c.retired.decipherFailures)
	le.U64(c.retired.reassemblyDrops)
	le.U64(c.retired.amAbandoned)
	le.U64(c.retired.amRetxBytes)
	le.U32(uint32(len(c.blockBits)))
	for _, v := range c.blockBits {
		le.I64(v)
	}
	for _, v := range c.blockActive {
		le.Bool(v)
	}
	le.Int(c.blockTTIs)
	// Scheduler audit counters — zeros when the scheduler is not an
	// InterUser (or is wrapped by one that isn't, as test harnesses
	// do), so the layout never depends on a runtime type assertion.
	var dec, ovr uint64
	var sac float64
	if iu, ok := c.sched.(*core.InterUser); ok {
		dec, ovr, sac = iu.Audit()
	}
	le.U64(dec)
	le.U64(ovr)
	le.F64(sac)
	b.Add("cell", &le)

	var me snapshot.Encoder
	c.Tracker.Snapshot(&me)
	c.FCT.Snapshot(&me)
	c.Delay.Snapshot(&me)
	c.Reg.Snapshot(&me)
	b.Add("metrics", &me)

	if c.kpi != nil {
		var ke snapshot.Encoder
		c.snapshotKPI(&ke)
		b.Add("kpi", &ke)
	}

	for i, ue := range c.ues {
		var e snapshot.Encoder
		c.snapshotUE(&e, ue, seqs)
		b.Add(fmt.Sprintf("ue%d", i), &e)
	}

	var pe snapshot.Encoder
	c.snapshotPending(&pe, seqs)
	b.Add("pending", &pe)
	return nil
}

// Snapshot assembles a complete snapshot file image.
func (c *Cell) Snapshot() ([]byte, error) {
	var b snapshot.Builder
	if err := c.SnapshotTo(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// snapshotUE encodes one UE: MAC view, PDCP entities, RLC entities,
// pending HARQ retransmissions, live flows (in canonical tuple order),
// and the UE's in-flight air-interface events — everything that can
// share SDU/PDU objects goes through one rlc.SnapEnc so pointer
// identity survives the round trip.
func (c *Cell) snapshotUE(e *snapshot.Encoder, ue *ueCtx, seqs []uint64) {
	e.Mark(tagUE)
	e.Int(ue.id)
	ue.macUser.Snapshot(e)
	ue.pdcpTx.Snapshot(e)
	ue.pdcpRx.Snapshot(e)
	se := rlc.NewSnapEnc(e)
	if ue.umTx != nil {
		e.U8(0)
		ue.umTx.Snapshot(se)
		ue.umRx.Snapshot(se)
	} else {
		e.U8(1)
		ue.amTx.Snapshot(se)
		ue.amRx.Snapshot(se)
	}
	e.U32(uint32(len(ue.harqPending)))
	for _, tb := range ue.harqPending {
		putHarqTB(se, tb)
	}
	e.Int(ue.enqueueDrops)
	keys := make([]ip.FiveTuple, 0, len(ue.flows))
	//outran:orderfree collected tuples are sorted before encoding
	for ft := range ue.flows {
		keys = append(keys, ft)
	}
	ip.SortTuples(keys)
	e.U32(uint32(len(keys)))
	for _, ft := range keys {
		fr := ue.flows[ft]
		e.Mark(tagFlow)
		ip.PutTuple(e, ft)
		e.I64(fr.size)
		e.I64(int64(fr.start))
		e.Bool(fr.incast)
		e.Bool(fr.record)
		fr.sender.Snapshot(e)
		fr.receiver.Snapshot(e)
	}
	var mine []uint64
	for _, s := range seqs {
		pe := c.pending[s]
		if (pe.kind == pkTB || pe.kind == pkAMStatus) && pe.ue == ue.id {
			mine = append(mine, s)
		}
	}
	e.U32(uint32(len(mine)))
	for _, s := range mine {
		pe := c.pending[s]
		e.U64(s)
		e.I64(int64(pe.at))
		e.U8(uint8(pe.kind))
		if pe.kind == pkTB {
			putHarqTB(se, pe.tb)
		} else {
			rlc.EncodeStatus(e, pe.status)
		}
	}
}

// snapshotPending encodes every pending event not owned by a UE
// section, in ascending seq order.
func (c *Cell) snapshotPending(e *snapshot.Encoder, seqs []uint64) {
	e.Mark(tagPending)
	var rest []uint64
	for _, s := range seqs {
		k := c.pending[s].kind
		if k == pkTB || k == pkAMStatus {
			continue
		}
		rest = append(rest, s)
	}
	e.U32(uint32(len(rest)))
	for _, s := range rest {
		pe := c.pending[s]
		e.U64(s)
		e.I64(int64(pe.at))
		e.U8(uint8(pe.kind))
		switch pe.kind {
		case pkArrival:
			e.Int(pe.ue)
			e.I64(pe.size)
			e.Bool(pe.incast)
			e.Bool(pe.skip)
		case pkPacket:
			e.Int(pe.ue)
			ip.PutPacket(e, pe.pkt)
		case pkAck:
			e.Int(pe.ue)
			ip.PutTuple(e, pe.tuple)
			e.I64(pe.rel)
		case pkTrackerReset, pkTrackerFreeze:
		case pkExternal:
			e.U64(pe.key)
		}
	}
}

// RestoreSnapshot overlays a snapshot onto a freshly built cell of the
// same configuration and re-registers every pending event with its
// exact original (time, seq), so continuing the run is byte-identical
// to never having stopped: same per-TTI schedule, same trace suffix,
// same end-of-run summary.
//
// The target must come straight from NewCell — same Config, clock still
// at zero, nothing scheduled beyond the construction tickers. Tracers
// (SetTracerResumed) and fault plumbing (SetFaultHooks,
// SetExternalRebuild plus the injector's own restore) are re-attached
// by the caller; external events fail the restore if no rebuild hook
// is registered.
func (c *Cell) RestoreSnapshot(a *snapshot.Archive) error {
	if c.restored {
		return fmt.Errorf("ran: cell already restored from a snapshot once")
	}
	if now, _, _ := c.Eng.SnapState(); now != 0 {
		return fmt.Errorf("ran: restore target already ran to %v; restore needs a freshly built cell", now)
	}
	c.EnableSnapshots()

	d, err := a.Section("config")
	if err != nil {
		return fmt.Errorf("ran: restoring cell: %w", err)
	}
	d.Expect(tagConfig)
	fp := d.Bytes32()
	if err := d.Err(); err != nil {
		return fmt.Errorf("ran: restoring config fingerprint: %w", err)
	}
	if want := c.configFingerprint(); !bytes.Equal(fp, want) {
		return fmt.Errorf("ran: snapshot was taken under a different configuration:\n  snapshot: %s\n  this run: %s", fp, want)
	}

	d, err = a.Section("engine")
	if err != nil {
		return fmt.Errorf("ran: restoring cell: %w", err)
	}
	d.Expect(tagEngine)
	now := sim.Time(d.I64())
	seq := d.U64()
	nEvents := d.U64()
	ttiArm := getPeriodicArm(d)
	cqiArm := getPeriodicArm(d)
	hasReset := d.Bool()
	var resetArm periodicArm
	if hasReset {
		resetArm = getPeriodicArm(d)
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("ran: restoring engine state: %w", err)
	}
	if hasReset != (c.tickReset != nil) {
		return fmt.Errorf("%w: snapshot and configuration disagree on the MLFQ reset ticker", snapshot.ErrCorrupt)
	}
	c.Eng.DropPending()
	c.Eng.RestoreState(now, seq, nEvents)
	c.tickTTI.RestoreArm(ttiArm.stopped, ttiArm.nextAt, ttiArm.seq)
	c.tickCQI.RestoreArm(cqiArm.stopped, cqiArm.nextAt, cqiArm.seq)
	if c.tickReset != nil {
		c.tickReset.RestoreArm(resetArm.stopped, resetArm.nextAt, resetArm.seq)
	}

	d, err = a.Section("cell")
	if err != nil {
		return fmt.Errorf("ran: restoring cell: %w", err)
	}
	d.Expect(tagCell)
	var rs [4]uint64
	for i := range rs {
		rs[i] = d.U64()
	}
	c.sduSeq = d.U64()
	c.nextPort = d.U16()
	c.rttSum = sim.Time(d.I64())
	c.rttCnt = d.Int()
	c.retired.evictions = d.Int()
	c.retired.decipherFailures = d.U64()
	c.retired.reassemblyDrops = d.U64()
	c.retired.amAbandoned = d.U64()
	c.retired.amRetxBytes = d.U64()
	nb := d.Count(1 << 20)
	if d.Err() == nil && nb != len(c.blockBits) {
		return fmt.Errorf("%w: snapshot has %d UEs of block accounting, cell has %d", snapshot.ErrCorrupt, nb, len(c.blockBits))
	}
	for i := 0; i < nb && d.Err() == nil; i++ {
		c.blockBits[i] = d.I64()
	}
	for i := 0; i < nb && d.Err() == nil; i++ {
		c.blockActive[i] = d.Bool()
	}
	c.blockTTIs = d.Int()
	dec := d.U64()
	ovr := d.U64()
	sac := d.F64()
	if iu, ok := c.sched.(*core.InterUser); ok && d.Err() == nil {
		iu.SetAudit(dec, ovr, sac)
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("ran: restoring cell scalars: %w", err)
	}
	c.r.SetState(rs)

	d, err = a.Section("metrics")
	if err != nil {
		return fmt.Errorf("ran: restoring cell: %w", err)
	}
	if err := c.Tracker.Restore(d); err != nil {
		return fmt.Errorf("ran: %w", err)
	}
	if err := c.FCT.Restore(d); err != nil {
		return fmt.Errorf("ran: %w", err)
	}
	if err := c.Delay.Restore(d); err != nil {
		return fmt.Errorf("ran: %w", err)
	}
	if err := c.Reg.Restore(d); err != nil {
		return fmt.Errorf("ran: %w", err)
	}

	if c.kpi != nil {
		d, err = a.Section("kpi")
		if err != nil {
			return fmt.Errorf("ran: restoring cell: %w", err)
		}
		if err := c.restoreKPI(d); err != nil {
			return fmt.Errorf("ran: %w", err)
		}
	}

	for i, ue := range c.ues {
		d, err = a.Section(fmt.Sprintf("ue%d", i))
		if err != nil {
			return fmt.Errorf("ran: restoring cell: %w", err)
		}
		if err := c.restoreUE(d, ue); err != nil {
			return fmt.Errorf("ran: restoring UE %d: %w", i, err)
		}
	}

	d, err = a.Section("pending")
	if err != nil {
		return fmt.Errorf("ran: restoring cell: %w", err)
	}
	if err := c.restorePending(d); err != nil {
		return fmt.Errorf("ran: restoring pending events: %w", err)
	}
	c.restored = true
	return nil
}

func (c *Cell) restoreUE(d *snapshot.Decoder, ue *ueCtx) error {
	d.Expect(tagUE)
	if id := d.Int(); d.Err() == nil && id != ue.id {
		return fmt.Errorf("%w: section holds UE %d", snapshot.ErrCorrupt, id)
	}
	if err := ue.macUser.Restore(d); err != nil {
		return err
	}
	// The snapshot's CQIs replace the report NewCell left outstanding.
	ue.cqiDue = false
	if err := ue.pdcpTx.Restore(d); err != nil {
		return err
	}
	if err := ue.pdcpRx.Restore(d); err != nil {
		return err
	}
	sd := rlc.NewSnapDec(d)
	mode := d.U8()
	if d.Err() == nil && (mode == 1) != (c.cfg.RLC == AM) {
		return fmt.Errorf("%w: snapshot RLC mode %d does not match configured %s", snapshot.ErrCorrupt, mode, c.cfg.RLC)
	}
	if ue.umTx != nil {
		if err := ue.umTx.Restore(sd); err != nil {
			return err
		}
		if err := ue.umRx.Restore(sd); err != nil {
			return err
		}
	} else {
		if err := ue.amTx.Restore(sd); err != nil {
			return err
		}
		if err := ue.amRx.Restore(sd); err != nil {
			return err
		}
	}
	nh := d.Count(1 << 20)
	for j := 0; j < nh && d.Err() == nil; j++ {
		if tb := getHarqTB(sd); tb != nil {
			ue.harqPending = append(ue.harqPending, tb)
		}
	}
	ue.enqueueDrops = d.Int()
	nf := d.Count(1 << 24)
	for j := 0; j < nf && d.Err() == nil; j++ {
		d.Expect(tagFlow)
		tuple := ip.GetTuple(d)
		size := d.I64()
		start := sim.Time(d.I64())
		incast := d.Bool()
		record := d.Bool()
		if d.Err() != nil {
			break
		}
		fr := &flowRuntime{ue: ue.id, tuple: tuple, size: size, start: start, incast: incast, record: record}
		fr.meta = c.flowMeta(size)
		fr.sender = transport.NewSender(c.Eng, c.cfg.Transport, tuple, size)
		fr.receiver = &transport.Receiver{}
		c.wireFlow(ue, fr)
		if err := fr.sender.Restore(d); err != nil {
			return err
		}
		if err := fr.receiver.Restore(d); err != nil {
			return err
		}
		ue.flows[tuple] = fr
	}
	np := d.Count(1 << 24)
	for j := 0; j < np && d.Err() == nil; j++ {
		seq := d.U64()
		at := sim.Time(d.I64())
		kind := pendingKind(d.U8())
		switch kind {
		case pkTB:
			tb := getHarqTB(sd)
			if d.Err() != nil || tb == nil {
				break
			}
			u := ue
			c.registerRestored(seq, pendingEvent{kind: pkTB, at: at, ue: ue.id, tb: tb},
				func() { c.tbArrive(u, tb) })
		case pkAMStatus:
			if ue.amTx == nil {
				return fmt.Errorf("%w: AM status event on a UM-mode bearer", snapshot.ErrCorrupt)
			}
			st := rlc.DecodeStatus(d)
			if d.Err() != nil {
				break
			}
			u := ue
			c.registerRestored(seq, pendingEvent{kind: pkAMStatus, at: at, ue: ue.id, status: st},
				func() { u.amTx.OnStatus(st) })
		default:
			d.Fail(fmt.Errorf("%w: unexpected pending kind %d in UE section", snapshot.ErrCorrupt, kind))
		}
	}
	if err := d.Err(); err != nil {
		return err
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes in UE section", snapshot.ErrCorrupt, d.Remaining())
	}
	return nil
}

func (c *Cell) restorePending(d *snapshot.Decoder) error {
	d.Expect(tagPending)
	n := d.Count(1 << 24)
	for j := 0; j < n && d.Err() == nil; j++ {
		seq := d.U64()
		at := sim.Time(d.I64())
		kind := pendingKind(d.U8())
		switch kind {
		case pkArrival:
			rawUE := d.Int()
			size := d.I64()
			incast := d.Bool()
			skip := d.Bool()
			if d.Err() != nil {
				break
			}
			o := FlowOptions{Incast: incast, SkipRecord: skip}
			c.registerRestored(seq, pendingEvent{kind: pkArrival, at: at, ue: rawUE, size: size, incast: incast, skip: skip},
				func() {
					if err := c.StartFlow(rawUE%len(c.ues), size, o); err != nil {
						panic(err)
					}
				})
		case pkPacket:
			ueIdx := d.Int()
			pkt := ip.GetPacket(d)
			if d.Err() != nil {
				break
			}
			if ueIdx < 0 || ueIdx >= len(c.ues) {
				return fmt.Errorf("%w: packet event for UE %d of %d", snapshot.ErrCorrupt, ueIdx, len(c.ues))
			}
			u := c.ues[ueIdx]
			c.registerRestored(seq, pendingEvent{kind: pkPacket, at: at, ue: ueIdx, pkt: pkt},
				func() { c.deliverToXNB(u, pkt) })
		case pkAck:
			ueIdx := d.Int()
			tuple := ip.GetTuple(d)
			rel := d.I64()
			if d.Err() != nil {
				break
			}
			if ueIdx < 0 || ueIdx >= len(c.ues) {
				return fmt.Errorf("%w: ack event for UE %d of %d", snapshot.ErrCorrupt, ueIdx, len(c.ues))
			}
			u := c.ues[ueIdx]
			// The live closure held the sender directly; a completed
			// sender ignores late ACKs, so the torn-down-flow case is
			// an equivalent no-op here.
			c.registerRestored(seq, pendingEvent{kind: pkAck, at: at, ue: ueIdx, tuple: tuple, rel: rel},
				func() {
					if fr := u.flows[tuple]; fr != nil {
						fr.sender.OnAck(rel)
					}
				})
		case pkTrackerReset:
			c.registerRestored(seq, pendingEvent{kind: pkTrackerReset, at: at}, c.Tracker.Reset)
		case pkTrackerFreeze:
			c.registerRestored(seq, pendingEvent{kind: pkTrackerFreeze, at: at}, c.Tracker.Freeze)
		case pkExternal:
			key := d.U64()
			if d.Err() != nil {
				break
			}
			if c.extRebuild == nil {
				return fmt.Errorf("ran: snapshot holds external event %#x but no rebuild hook is registered (SetExternalRebuild before RestoreSnapshot)", key)
			}
			fn := c.extRebuild(key)
			if fn == nil {
				return fmt.Errorf("ran: external rebuild hook returned nil for key %#x", key)
			}
			c.registerRestored(seq, pendingEvent{kind: pkExternal, at: at, key: key}, fn)
		default:
			d.Fail(fmt.Errorf("%w: unknown pending kind %d", snapshot.ErrCorrupt, kind))
		}
	}
	if err := d.Err(); err != nil {
		return err
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes in pending section", snapshot.ErrCorrupt, d.Remaining())
	}
	return nil
}
