package rtp

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"rtcadapt/internal/codec"
)

func TestHeaderMarshalRoundTrip(t *testing.T) {
	orig := Packet{
		Header: Header{
			Version:        2,
			Marker:         true,
			PayloadType:    96,
			SequenceNumber: 0xBEEF,
			Timestamp:      0xDEADBEEF,
			SSRC:           0x12345678,
		},
		Ext: Extension{
			TransportSeq: 424242,
			FrameID:      999,
			FragIndex:    3,
			FragCount:    7,
			FrameType:    1,
			CaptureTS:    1234567890 * time.Nanosecond,
		},
		PayloadLen: 1000,
	}
	buf, err := orig.MarshalBinary()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if len(buf) != HeaderSize+ExtensionSize {
		t.Fatalf("marshaled %d bytes, want %d", len(buf), HeaderSize+ExtensionSize)
	}
	var got Packet
	got.PayloadLen = orig.PayloadLen // not on the wire
	if err := got.UnmarshalBinary(buf); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if got != orig {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, orig)
	}
}

// Property: marshal/unmarshal is the identity on all header fields.
func TestHeaderRoundTripProperty(t *testing.T) {
	f := func(marker bool, pt byte, seq uint16, ts, ssrc, twcc, fid uint32,
		fragIdx, fragCnt uint16, ftype byte, cap int64) bool {
		orig := Packet{
			Header: Header{
				Version: 2, Marker: marker, PayloadType: pt & 0x7f,
				SequenceNumber: seq, Timestamp: ts, SSRC: ssrc,
			},
			Ext: Extension{
				TransportSeq: twcc, FrameID: fid,
				FragIndex: fragIdx, FragCount: fragCnt,
				FrameType: ftype, CaptureTS: time.Duration(cap),
			},
		}
		buf, err := orig.MarshalBinary()
		if err != nil {
			return false
		}
		var got Packet
		if err := got.UnmarshalBinary(buf); err != nil {
			return false
		}
		return got == orig
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	var p Packet
	if err := p.UnmarshalBinary(make([]byte, 5)); !errors.Is(err, ErrShortPacket) {
		t.Errorf("short packet: %v", err)
	}
	buf := make([]byte, HeaderSize+ExtensionSize)
	buf[0] = 1 << 6 // version 1
	if err := p.UnmarshalBinary(buf); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version: %v", err)
	}
	good, _ := (&Packet{Header: Header{Version: 2}}).MarshalBinary()
	good[HeaderSize] = 0 // corrupt extension profile
	if err := p.UnmarshalBinary(good); !errors.Is(err, ErrBadProfile) {
		t.Errorf("bad profile: %v", err)
	}
}

func TestMarshalRejectsBadVersion(t *testing.T) {
	p := Packet{Header: Header{Version: 1}}
	if _, err := p.MarshalBinary(); !errors.Is(err, ErrBadVersion) {
		t.Errorf("want ErrBadVersion, got %v", err)
	}
}

func TestWireSize(t *testing.T) {
	p := Packet{PayloadLen: 1000}
	want := IPUDPOverhead + HeaderSize + ExtensionSize + 1000
	if p.WireSize() != want {
		t.Errorf("WireSize = %d, want %d", p.WireSize(), want)
	}
}

func encFrame(idx, bytes int, typ codec.FrameType) codec.EncodedFrame {
	return codec.EncodedFrame{
		Index: idx,
		PTS:   time.Duration(idx) * 33 * time.Millisecond,
		Type:  typ,
		Bits:  bytes * 8,
	}
}

func TestPacketizeSplitsAtMTU(t *testing.T) {
	pz := NewPacketizer(1, 96, 1200)
	pkts := pz.Packetize(encFrame(0, 3000, codec.TypeI))
	if len(pkts) != 3 {
		t.Fatalf("3000 bytes @ MTU 1200 -> %d packets, want 3", len(pkts))
	}
	total := 0
	for i, p := range pkts {
		total += p.PayloadLen
		if p.PayloadLen > 1200 {
			t.Errorf("packet %d payload %d > MTU", i, p.PayloadLen)
		}
		if wantMarker := i == len(pkts)-1; p.Marker != wantMarker {
			t.Errorf("packet %d marker = %v", i, p.Marker)
		}
		if int(p.Ext.FragIndex) != i || int(p.Ext.FragCount) != 3 {
			t.Errorf("packet %d frag %d/%d", i, p.Ext.FragIndex, p.Ext.FragCount)
		}
	}
	if total != 3000 {
		t.Errorf("payload total %d, want 3000", total)
	}
}

func TestPacketizeSequenceNumbersContinuous(t *testing.T) {
	pz := NewPacketizer(1, 96, 500)
	var all []*Packet
	for i := 0; i < 5; i++ {
		all = append(all, pz.Packetize(encFrame(i, 1200, codec.TypeP))...)
	}
	for i := 1; i < len(all); i++ {
		if all[i].SequenceNumber != all[i-1].SequenceNumber+1 {
			t.Fatalf("seq gap at %d: %d -> %d", i, all[i-1].SequenceNumber, all[i].SequenceNumber)
		}
		if all[i].Ext.TransportSeq != all[i-1].Ext.TransportSeq+1 {
			t.Fatalf("twcc gap at %d", i)
		}
	}
}

func TestPacketizeSkipFrame(t *testing.T) {
	pz := NewPacketizer(1, 96, 1200)
	if pkts := pz.Packetize(encFrame(0, 0, codec.TypeSkip)); pkts != nil {
		t.Errorf("skip frame produced %d packets", len(pkts))
	}
}

func TestPacketizeFrameTypeAndCapture(t *testing.T) {
	pz := NewPacketizer(7, 96, 1200)
	i := pz.Packetize(encFrame(0, 100, codec.TypeI))[0]
	p := pz.Packetize(encFrame(1, 100, codec.TypeP))[0]
	if i.Ext.FrameType != 0 || p.Ext.FrameType != 1 {
		t.Errorf("frame types: I=%d P=%d", i.Ext.FrameType, p.Ext.FrameType)
	}
	if p.Ext.CaptureTS != 33*time.Millisecond {
		t.Errorf("capture ts = %v", p.Ext.CaptureTS)
	}
	if i.SSRC != 7 {
		t.Errorf("ssrc = %d", i.SSRC)
	}
}

func TestReassemblerInOrder(t *testing.T) {
	pz := NewPacketizer(1, 96, 1000)
	r := NewReassembler()
	pkts := pz.Packetize(encFrame(0, 2500, codec.TypeI))
	at := 10 * time.Millisecond
	for i, p := range pkts {
		f, ok := r.Push(p, at+time.Duration(i)*time.Millisecond)
		if i < len(pkts)-1 && ok {
			t.Fatalf("frame completed early at fragment %d", i)
		}
		if i == len(pkts)-1 {
			if !ok {
				t.Fatal("frame did not complete")
			}
			if f.Bytes != 2500 || f.Packets != 3 || f.FrameID != 0 {
				t.Errorf("complete frame %+v", f)
			}
			if f.Arrival != at+2*time.Millisecond || f.FirstArrival != at {
				t.Errorf("arrival times %v / %v", f.FirstArrival, f.Arrival)
			}
		}
	}
}

func TestReassemblerOutOfOrderAndDuplicates(t *testing.T) {
	pz := NewPacketizer(1, 96, 1000)
	r := NewReassembler()
	pkts := pz.Packetize(encFrame(5, 3000, codec.TypeP))
	// Deliver reversed with a duplicate in the middle.
	if _, ok := r.Push(pkts[2], 3*time.Millisecond); ok {
		t.Fatal("completed with 1 fragment")
	}
	if _, ok := r.Push(pkts[2], 4*time.Millisecond); ok {
		t.Fatal("duplicate completed the frame")
	}
	if _, ok := r.Push(pkts[1], 5*time.Millisecond); ok {
		t.Fatal("completed with 2 fragments")
	}
	f, ok := r.Push(pkts[0], 6*time.Millisecond)
	if !ok {
		t.Fatal("did not complete")
	}
	if f.Bytes != 3000 {
		t.Errorf("bytes = %d, want 3000 (duplicate must not double-count)", f.Bytes)
	}
	if f.Arrival != 6*time.Millisecond {
		t.Errorf("arrival = %v, want 6ms", f.Arrival)
	}
}

func TestReassemblerInterleavedFrames(t *testing.T) {
	pz := NewPacketizer(1, 96, 1000)
	r := NewReassembler()
	a := pz.Packetize(encFrame(0, 2000, codec.TypeP))
	b := pz.Packetize(encFrame(1, 2000, codec.TypeP))
	r.Push(a[0], 1*time.Millisecond)
	r.Push(b[0], 2*time.Millisecond)
	if _, ok := r.Push(b[1], 3*time.Millisecond); !ok {
		t.Fatal("frame 1 did not complete")
	}
	if _, ok := r.Push(a[1], 4*time.Millisecond); !ok {
		t.Fatal("frame 0 did not complete")
	}
	if r.PendingFrames() != 0 {
		t.Errorf("pending = %d, want 0", r.PendingFrames())
	}
}

func TestReassemblerExpiresStaleFrames(t *testing.T) {
	pz := NewPacketizer(1, 96, 1000)
	r := NewReassembler()
	r.Horizon = 4
	// Frame 0 loses a fragment.
	stale := pz.Packetize(encFrame(0, 2000, codec.TypeP))
	r.Push(stale[0], time.Millisecond)
	// Frames 1..9 complete.
	for i := 1; i < 10; i++ {
		for _, p := range pz.Packetize(encFrame(i, 500, codec.TypeP)) {
			r.Push(p, time.Duration(i)*time.Millisecond)
		}
	}
	if r.PendingFrames() != 0 {
		t.Errorf("stale frame not expired; pending = %d", r.PendingFrames())
	}
	lost := r.Lost()
	if len(lost) != 1 || lost[0] != 0 {
		t.Errorf("Lost() = %v, want [0]", lost)
	}
	if r.Lost() != nil {
		t.Error("second Lost() call should drain to nil")
	}
}

// TestReassemblerPendingBound pins the bound on waiting frames under
// fragment loss: at most Horizon frames at or behind the newest completed
// frame plus the frames begun since it.
func TestReassemblerPendingBound(t *testing.T) {
	pz := NewPacketizer(1, 96, 1000)
	r := NewReassembler()
	r.Horizon = 8
	rng := uint64(7)
	next := func() uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return rng >> 33
	}
	newest, most := -1, 0
	for i := 0; i < 3000; i++ {
		for _, p := range pz.Packetize(encFrame(i, 500+int(next()%7500), codec.TypeP)) {
			if next()%100 < 15 {
				continue // lost
			}
			if f, ok := r.Push(p, time.Duration(i)*time.Millisecond); ok && int(f.FrameID) > newest {
				newest = int(f.FrameID)
			}
		}
		if bound := int(r.Horizon) + i - newest; r.PendingFrames() > bound {
			t.Fatalf("frame %d: %d pending, bound %d (newest completed %d)", i, r.PendingFrames(), bound, newest)
		}
		most = max(most, r.PendingFrames())
	}
	if most > 4*int(r.Horizon) {
		t.Fatalf("pending reached %d frames, want a few horizons at most", most)
	}
}

// Property: packetize → shuffle → reassemble yields the original byte count
// for any frame size.
func TestPacketizeReassembleProperty(t *testing.T) {
	f := func(sizeRaw uint16, seed int64) bool {
		size := int(sizeRaw)%20000 + 1
		pz := NewPacketizer(1, 96, 1200)
		r := NewReassembler()
		pkts := pz.Packetize(encFrame(0, size, codec.TypeP))
		// Deterministic shuffle.
		rng := seed
		for i := len(pkts) - 1; i > 0; i-- {
			rng = rng*6364136223846793005 + 1442695040888963407
			j := int(uint64(rng)%uint64(i+1)) & 0x7fffffff % (i + 1)
			pkts[i], pkts[j] = pkts[j], pkts[i]
		}
		var complete *CompleteFrame
		for i, p := range pkts {
			if fr, ok := r.Push(p, time.Duration(i)*time.Millisecond); ok {
				complete = &fr
			}
		}
		return complete != nil && complete.Bytes == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestJitterBufferBasicPlayout(t *testing.T) {
	jb := NewJitterBuffer(20*time.Millisecond, 500*time.Millisecond)
	f := CompleteFrame{FrameID: 1, CaptureTS: 0, Arrival: 50 * time.Millisecond}
	at, drop := jb.Push(f)
	if drop {
		t.Fatal("first frame dropped")
	}
	if at < f.Arrival {
		t.Errorf("display %v before arrival %v", at, f.Arrival)
	}
}

func TestJitterBufferDropsLateFrames(t *testing.T) {
	jb := NewJitterBuffer(0, 0)
	jb.Push(CompleteFrame{FrameID: 5, CaptureTS: 0, Arrival: 10 * time.Millisecond})
	if _, drop := jb.Push(CompleteFrame{FrameID: 3, CaptureTS: 0, Arrival: 11 * time.Millisecond}); !drop {
		t.Error("frame older than last displayed was not dropped")
	}
	if jb.Dropped() != 1 || jb.Displayed() != 1 {
		t.Errorf("dropped=%d displayed=%d", jb.Dropped(), jb.Displayed())
	}
}

func TestJitterBufferMonotoneDisplay(t *testing.T) {
	jb := NewJitterBuffer(0, 0)
	var last time.Duration
	for i := 1; i <= 100; i++ {
		// Wild delay variation.
		arr := time.Duration(i)*33*time.Millisecond + time.Duration((i%7))*20*time.Millisecond
		at, drop := jb.Push(CompleteFrame{
			FrameID:   uint32(i),
			CaptureTS: time.Duration(i) * 33 * time.Millisecond,
			Arrival:   arr,
		})
		if drop {
			continue
		}
		if at <= last {
			t.Fatalf("display times not monotone: %v after %v", at, last)
		}
		last = at
	}
}

func TestJitterBufferAdaptsToJitter(t *testing.T) {
	quiet := NewJitterBuffer(0, 0)
	noisy := NewJitterBuffer(0, 0)
	for i := 1; i <= 200; i++ {
		base := time.Duration(i) * 33 * time.Millisecond
		quiet.Push(CompleteFrame{FrameID: uint32(i), CaptureTS: base, Arrival: base + 40*time.Millisecond})
		j := time.Duration(i%5) * 25 * time.Millisecond
		noisy.Push(CompleteFrame{FrameID: uint32(i), CaptureTS: base, Arrival: base + 40*time.Millisecond + j})
	}
	if noisy.TargetDelay() <= quiet.TargetDelay() {
		t.Errorf("noisy path target (%v) should exceed quiet path target (%v)",
			noisy.TargetDelay(), quiet.TargetDelay())
	}
}

func TestJitterBufferTargetBounds(t *testing.T) {
	jb := NewJitterBuffer(20*time.Millisecond, 100*time.Millisecond)
	if jb.TargetDelay() != 20*time.Millisecond {
		t.Errorf("unseeded target = %v, want MinDelay", jb.TargetDelay())
	}
	// Enormous delays must clamp at MaxDelay.
	for i := 1; i < 50; i++ {
		jb.Push(CompleteFrame{
			FrameID:   uint32(i),
			CaptureTS: 0,
			Arrival:   time.Duration(i) * time.Second,
		})
	}
	if jb.TargetDelay() > 100*time.Millisecond {
		t.Errorf("target %v exceeds MaxDelay", jb.TargetDelay())
	}
}

func TestJitterBufferLatenessBudget(t *testing.T) {
	jb := NewJitterBuffer(0, 0)
	if jb.LatenessBudget != 600*time.Millisecond {
		t.Fatalf("default budget = %v", jb.LatenessBudget)
	}
	// A frame 700 ms late is not rendered.
	if _, drop := jb.Push(CompleteFrame{FrameID: 1, CaptureTS: 0, Arrival: 700 * time.Millisecond}); !drop {
		t.Error("frame over the lateness budget was rendered")
	}
	// A later frame within budget still renders (lastID did not advance).
	if _, drop := jb.Push(CompleteFrame{FrameID: 2, CaptureTS: time.Second, Arrival: time.Second + 100*time.Millisecond}); drop {
		t.Error("in-budget frame dropped after a late predecessor")
	}
	// Disabling the budget renders arbitrarily late frames.
	jb2 := NewJitterBuffer(0, 0)
	jb2.LatenessBudget = -1
	if _, drop := jb2.Push(CompleteFrame{FrameID: 1, CaptureTS: 0, Arrival: 10 * time.Second}); drop {
		t.Error("budget-disabled buffer dropped a late frame")
	}
}

func TestPushUnorderedTentativeDisplay(t *testing.T) {
	jb := NewJitterBuffer(20*time.Millisecond, 500*time.Millisecond)
	// Display never precedes arrival.
	f := CompleteFrame{FrameID: 1, CaptureTS: 0, Arrival: 80 * time.Millisecond}
	if at := jb.PushUnordered(f); at < f.Arrival {
		t.Errorf("display %v before arrival", at)
	}
	// After steady samples, display = capture + target (>= MinDelay).
	for i := 2; i < 50; i++ {
		cap := time.Duration(i) * 33 * time.Millisecond
		jb.PushUnordered(CompleteFrame{FrameID: uint32(i), CaptureTS: cap, Arrival: cap + 40*time.Millisecond})
	}
	cap := 50 * 33 * time.Millisecond
	at := jb.PushUnordered(CompleteFrame{FrameID: 50, CaptureTS: cap, Arrival: cap + 40*time.Millisecond})
	if at < cap+40*time.Millisecond || at > cap+300*time.Millisecond {
		t.Errorf("tentative display %v implausible", at-cap)
	}
	// Unlike Push, ordering is NOT enforced: an older frame still gets a
	// tentative time (the decode pass owns ordering).
	if at := jb.PushUnordered(CompleteFrame{FrameID: 3, CaptureTS: 0, Arrival: 100 * time.Millisecond}); at == 0 {
		t.Error("PushUnordered refused an out-of-order frame")
	}
}

func TestTransportSeqAllocation(t *testing.T) {
	pz := NewPacketizer(1, 96, 0) // 0 -> DefaultMTU
	if pz.NextTransportSeq() != 0 {
		t.Error("fresh packetizer seq")
	}
	pkts := pz.Packetize(encFrame(0, 100, codec.TypeP))
	if pz.NextTransportSeq() != 1 {
		t.Errorf("after 1 packet: next = %d", pz.NextTransportSeq())
	}
	s := pz.AllocTransportSeq()
	if s != 1 || pz.NextTransportSeq() != 2 {
		t.Errorf("AllocTransportSeq = %d, next = %d", s, pz.NextTransportSeq())
	}
	// Retransmit keeps RTP identity, takes a fresh transport seq.
	clone := pz.Retransmit(pkts[0])
	if clone.SequenceNumber != pkts[0].SequenceNumber {
		t.Error("retransmit changed RTP seq")
	}
	if clone.Ext.TransportSeq != 2 {
		t.Errorf("retransmit transport seq = %d", clone.Ext.TransportSeq)
	}
	if clone == pkts[0] {
		t.Error("retransmit did not clone")
	}
}
