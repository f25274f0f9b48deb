package fec

import (
	"slices"
	"testing"
	"time"

	"rtcadapt/internal/rtp"
)

// lossRecoveryRig runs the window-ring NackGenerator, RtxBuffer and
// Decoder beside their map-keyed reference models and fails on the first
// answer that differs.
type lossRecoveryRig struct {
	t *testing.T

	rtx    *rtp.RtxBuffer
	refRtx *refRtxBuffer
	sent   []*rtp.Packet
	txSeq  uint16

	nack    *rtp.NackGenerator
	refNack *refNackGenerator
	rxSeq   uint16
	now     time.Duration

	dec     *Decoder
	refDec  *refDecoder
	fecSeq  uint16
	repairs []*Repair
	nextID  uint32
}

// newLossRecoveryRig configures the components from the first six bytes
// of data: RtxBuffer capacity, NACK MaxTracked (1..48, or 2^16 so a
// missing set can outlive a whole lap of the sequence space), MaxRetries,
// the starting sequence number and the decoder's MaxGroups.
func newLossRecoveryRig(t *testing.T, data []byte) (*lossRecoveryRig, []byte) {
	var cfg [6]byte
	copy(cfg[:], data)
	data = data[min(len(data), len(cfg)):]
	start := uint16(cfg[3])<<8 | uint16(cfg[4])
	r := &lossRecoveryRig{
		t:       t,
		rtx:     rtp.NewRtxBuffer(1 + int(cfg[0]%32)),
		refRtx:  newRefRtxBuffer(1 + int(cfg[0]%32)),
		nack:    rtp.NewNackGenerator(),
		refNack: newRefNackGenerator(),
		dec:     NewDecoder(),
		refDec:  newRefDecoder(),
		txSeq:   start,
		rxSeq:   start,
		fecSeq:  start,
	}
	maxTracked := 1 + int(cfg[1]%48)
	if cfg[1] >= 240 {
		maxTracked = 1 << 16
	}
	r.nack.MaxTracked, r.refNack.MaxTracked = maxTracked, maxTracked
	r.nack.MaxRetries, r.refNack.MaxRetries = int(cfg[2]%5), int(cfg[2]%5)
	r.dec.MaxGroups, r.refDec.MaxGroups = 1+int(cfg[5]%16), 1+int(cfg[5]%16)
	return r, data
}

func pkt(seq uint16) *rtp.Packet {
	return &rtp.Packet{
		Header:     rtp.Header{Version: 2, SequenceNumber: seq, SSRC: 1},
		Ext:        rtp.Extension{FrameID: uint32(seq) / 4, FragIndex: seq % 4, FragCount: 4},
		PayloadLen: 100 + int(seq%1000),
	}
}

// op applies one two-byte operation. Sequence numbers are offsets from
// three cursors (sender, NACK receiver, FEC receiver) that only move
// forward, so op streams walk across the 2^16 wrap.
func (r *lossRecoveryRig) op(code, arg byte) {
	switch code % 12 {
	case 0: // send a new packet (arg%4 skips sequence numbers)
		r.txSeq += uint16(arg % 4)
		p := pkt(r.txSeq)
		r.txSeq++
		r.sent = append(r.sent, p)
		r.rtx.Store(p)
		r.refRtx.Store(p)
	case 1: // send a retransmission clone of an earlier packet, which
		// may have been evicted since
		if len(r.sent) == 0 {
			return
		}
		clone := *r.sent[len(r.sent)-1-int(arg)%len(r.sent)]
		r.rtx.Store(&clone)
		r.refRtx.Store(&clone)
	case 2: // look a sequence up, as a NACK would
		seq := r.txSeq - 1 - uint16(arg)
		got, ok := r.rtx.Get(seq)
		want, wantOK := r.refRtx.Get(seq)
		if got != want || ok != wantOK || r.rtx.Len() != r.refRtx.Len() {
			r.t.Fatalf("RtxBuffer.Get(%d) = %p,%v len %d, reference %p,%v len %d",
				seq, got, ok, r.rtx.Len(), want, wantOK, r.refRtx.Len())
		}
	case 3: // a packet arrives near the receiver's cursor: reordered,
		// duplicated, or opening a gap
		r.arrive(r.rxSeq + uint16(int8(arg)))
	case 4: // a jump far ahead: a long outage, abandonment, laps
		r.arrive(r.rxSeq + uint16(arg)*128)
	case 5: // a feedback tick
		r.now += time.Duration(arg) * time.Millisecond
		got, want := r.nack.Collect(r.now), r.refNack.Collect(r.now)
		if !slices.Equal(got, want) || (got == nil) != (want == nil) {
			r.t.Fatalf("Collect(%v) = %v, reference %v", r.now, got, want)
		}
		r.checkNack()
	case 6: // a media packet reaches the FEC decoder
		seq := r.fecSeq + uint16(int8(arg))
		if int8(arg) > 0 {
			r.fecSeq = seq
		}
		r.checkRecovered("OnMedia", r.dec.OnMedia(seq), r.refDec.OnMedia(seq))
	case 7: // a repair over a run of recent sequence numbers
		r.repair(r.fecSeq-uint16(arg/5%16), 1, 1+int(arg%5))
	case 8: // a repair over a strided set that overlaps other groups;
		// stride 0 protects one sequence several times
		r.repair(r.fecSeq-uint16(arg/12%16), uint16(arg%3), 2+int(arg/3%4))
	case 9: // an earlier repair arrives again or late
		if len(r.repairs) == 0 {
			return
		}
		rep := r.repairs[len(r.repairs)-1-int(arg)%len(r.repairs)]
		r.checkRecovered("OnRepair (replay)", r.dec.OnRepair(rep), r.refDec.OnRepair(rep))
	case 10: // a burst of consecutive media, turning over the decoder's
		// received window
		for i := 0; i < 64*int(1+arg%16); i++ {
			r.fecSeq++
			r.checkRecovered("OnMedia (burst)", r.dec.OnMedia(r.fecSeq), r.refDec.OnMedia(r.fecSeq))
		}
	case 11: // a repair reaching up to 8160 sequences back, past the
		// received window
		r.repair(r.fecSeq-uint16(arg)*32, 2, 2)
	}
}

func (r *lossRecoveryRig) arrive(seq uint16) {
	if rtp.SeqLess(r.rxSeq, seq) {
		r.rxSeq = seq
	}
	r.nack.OnPacket(seq)
	r.refNack.OnPacket(seq)
	r.checkNack()
}

func (r *lossRecoveryRig) checkNack() {
	if r.nack.Missing() != r.refNack.Missing() || r.nack.Recovered() != r.refNack.Recovered() ||
		r.nack.Abandoned() != r.refNack.Abandoned() {
		r.t.Fatalf("NackGenerator missing/recovered/abandoned = %d/%d/%d, reference %d/%d/%d",
			r.nack.Missing(), r.nack.Recovered(), r.nack.Abandoned(),
			r.refNack.Missing(), r.refNack.Recovered(), r.refNack.Abandoned())
	}
}

// repair delivers a new repair protecting n sequences from first, stride
// apart.
func (r *lossRecoveryRig) repair(first, stride uint16, n int) {
	rep := &Repair{RepairID: r.nextID, SSRC: 1}
	r.nextID++
	for i := 0; i < n; i++ {
		rep.Protected = append(rep.Protected, *pkt(first + uint16(i)*stride))
	}
	r.repairs = append(r.repairs, rep)
	r.checkRecovered("OnRepair", r.dec.OnRepair(rep), r.refDec.OnRepair(rep))
}

func (r *lossRecoveryRig) checkRecovered(what string, got, want []*rtp.Packet) {
	same := len(got) == len(want) && r.dec.Recovered() == r.refDec.Recovered()
	for i := 0; same && i < len(got); i++ {
		same = *got[i] == *want[i]
	}
	if !same {
		r.t.Fatalf("%s recovered %v (total %d), reference %v (total %d)",
			what, seqsOf(got), r.dec.Recovered(), seqsOf(want), r.refDec.Recovered())
	}
}

func seqsOf(pkts []*rtp.Packet) []uint16 {
	out := make([]uint16, len(pkts))
	for i, p := range pkts {
		out[i] = p.SequenceNumber
	}
	return out
}

// FuzzLossRecovery decodes fuzz bytes into store/get, arrive/collect and
// media/repair operations and checks every answer of the window-ring
// loss-recovery structures against the map-keyed reference models.
func FuzzLossRecovery(f *testing.F) {
	// Each seed is six configuration bytes then (op, arg) pairs; see
	// newLossRecoveryRig and op.
	seeds := [][]byte{
		// Sends across the 2^16 wrap into a 4-slot buffer, then a
		// retransmission clone of an evicted packet is stored again
		// and looked up, and a clone of a buffered one replaces it.
		{3, 10, 3, 0xff, 0xfc, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 2, 3, 1, 5, 2, 0, 2, 4, 0, 0, 2, 5, 1, 0, 2, 0},
		// A gap across the wrap, a NACK round, retransmissions
		// arriving out of order, retries and abandonment.
		{0, 10, 3, 0xff, 0xf0, 4, 3, 1, 3, 20, 5, 60, 3, 0xfd, 5, 60, 3, 0xf0, 5, 60, 5, 60, 5, 60, 3, 2},
		// Overflowing MaxTracked with long jumps.
		{0, 4, 3, 0x12, 0x34, 4, 3, 1, 4, 200, 5, 10, 4, 3, 5, 100, 3, 0x80},
		// Unbounded tracking: loss 1 outlives two long jumps, then the
		// highest sequence laps round to 2 and the new gap re-registers
		// it; Collect then lists the whole set in age order.
		{0, 250, 3, 0xff, 0xf0, 4, 3, 0, 3, 2, 4, 255, 4, 255, 4, 2, 5, 0, 3, 1, 5, 60},
		// A double loss recovered once one of its two losses arrives,
		// a single loss, a duplicate repair and a late one.
		{0, 0, 3, 0xff, 0xfa, 3, 6, 1, 6, 1, 6, 2, 7, 3, 6, 2, 6, 3, 7, 8, 9, 0, 6, 0xff, 9, 1},
		// Two groups of three, each missing two packets, then a
		// duplicate of the newer repair: it must not take a group slot
		// (MaxGroups 2), so the older group is still there to recover
		// its second loss when its first one arrives.
		{0, 0, 3, 0xff, 0xfa, 1, 6, 1, 7, 2, 6, 4, 7, 2, 9, 0, 6, 0xfe},
		// Groups {0,1} then {-1,0}, all missing: packet 0 arriving
		// recovers 1 and then -1, in group arrival order.
		{0, 0, 3, 0xff, 0xfe, 15, 7, 1, 7, 6, 6, 0},
		// Overlapping strided groups and a repeated sequence within
		// one group.
		{0, 0, 3, 0x40, 0x00, 15, 6, 1, 6, 2, 6, 2, 8, 13, 8, 1, 8, 24, 6, 0xfe, 9, 2, 6, 1},
		// Received-window turnover, then a repair over one sequence
		// just out of the window and one still in it, and repairs
		// within it.
		{0, 0, 3, 0xfe, 0x00, 2, 10, 15, 10, 15, 10, 15, 10, 15, 10, 15, 11, 128, 7, 79, 6, 0x81, 7, 74, 9, 1},
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, ops := newLossRecoveryRig(t, data)
		for i := 0; i+1 < len(ops); i += 2 {
			r.op(ops[i], ops[i+1])
		}
	})
}
