// Package fec implements XOR-based forward error correction for media
// packets, in the spirit of FlexFEC (RFC 8627): the sender emits one
// repair packet per group of K media packets; the receiver can reconstruct
// any single missing packet of a group from the repair plus the K-1
// received packets — no retransmission round trip.
//
// The simulator transports packet sizes rather than payload bytes, so the
// repair "carries" copies of the protected packets' headers; on a real
// wire the same information is recovered by XORing the received packets
// with the repair payload. The repair's wire size matches reality: the
// longest protected packet plus a small FEC header.
package fec

import (
	"rtcadapt/internal/rtp"
)

// RepairHeaderBytes is the FEC header overhead on the wire.
const RepairHeaderBytes = 20

// Repair is one FEC repair packet protecting a group of media packets.
type Repair struct {
	// RepairID identifies the repair packet.
	RepairID uint32
	// SSRC is the protected flow.
	SSRC uint32
	// TransportSeq is assigned by the sender so congestion-control
	// feedback covers repair packets too.
	TransportSeq uint32
	// Protected holds copies of the protected packets (the simulator's
	// stand-in for the XOR payload).
	Protected []rtp.Packet
	// WireBytes is the on-wire size of the repair packet.
	WireBytes int
}

// WireSize returns the repair's on-wire size in bytes.
func (r *Repair) WireSize() int { return r.WireBytes }

// GroupEncoder produces repair packets for outgoing media. Not safe for
// concurrent use.
//
// Each repair and its Protected copies are carved from slabs, as the
// packetizer carves packets: the open group accumulates in a reused
// buffer and is copied into the packet slab when it flushes, so a group
// costs no allocation of its own. Slab memory stays valid as long as a
// repair refers to it.
type GroupEncoder struct {
	// K is the group size: one repair per K media packets. Smaller K
	// means more overhead and more protection. Default 4.
	K    int
	ssrc uint32

	nextID  uint32
	pending []rtp.Packet

	slab     []rtp.Packet
	slabUsed int
	repairs  []Repair
	repUsed  int
}

// Slab granularities: 256 protected copies is 64 groups of 4, and one
// repair slab covers as many groups.
const (
	packetSlabSize = 256
	repairSlabSize = 64
)

// NewGroupEncoder returns an encoder emitting one repair per k media
// packets (k <= 0 selects 4) for the given SSRC.
func NewGroupEncoder(ssrc uint32, k int) *GroupEncoder {
	if k <= 0 {
		k = 4
	}
	return &GroupEncoder{K: k, ssrc: ssrc}
}

// Overhead returns the nominal FEC bandwidth overhead fraction (1/K).
func (e *GroupEncoder) Overhead() float64 { return 1 / float64(e.K) }

// Add offers one outgoing media packet; when a group fills, the repair
// packet is returned (nil otherwise).
func (e *GroupEncoder) Add(pkt *rtp.Packet) *Repair {
	e.pending = append(e.pending, *pkt)
	if len(e.pending) < e.K {
		return nil
	}
	return e.flush()
}

// Flush emits a repair for a partial group (e.g. at end of frame), or nil
// if no packets are pending. Flushing frame-aligned groups keeps repair
// latency at zero frames.
func (e *GroupEncoder) Flush() *Repair {
	if len(e.pending) == 0 {
		return nil
	}
	return e.flush()
}

func (e *GroupEncoder) flush() *Repair {
	n := len(e.pending)
	maxSize := 0
	for i := range e.pending {
		if s := e.pending[i].WireSize(); s > maxSize {
			maxSize = s
		}
	}
	if len(e.slab)-e.slabUsed < n {
		e.slab = make([]rtp.Packet, max(packetSlabSize, n))
		e.slabUsed = 0
	}
	protected := e.slab[e.slabUsed : e.slabUsed+n : e.slabUsed+n]
	e.slabUsed += n
	copy(protected, e.pending)
	if e.repUsed == len(e.repairs) {
		e.repairs = make([]Repair, repairSlabSize)
		e.repUsed = 0
	}
	rep := &e.repairs[e.repUsed]
	e.repUsed++
	*rep = Repair{
		RepairID:  e.nextID,
		SSRC:      e.ssrc,
		Protected: protected,
		WireBytes: maxSize + RepairHeaderBytes,
	}
	e.nextID++
	e.pending = e.pending[:0]
	return rep
}

// Decoder reconstructs missing media packets from repairs. Not safe for
// concurrent use.
//
// Its state is three fixed-size windows instead of hash maps: the live
// groups in arrival order (a ring of at most MaxGroups), an rtp.SeqIndex
// from each protected sequence number to the serials of the groups
// protecting it, and the recently received sequence numbers as a bitset
// over the sequence space plus a FIFO ring of the last
// receivedWindow of them, which bounds the set.
type Decoder struct {
	// MaxGroups bounds memory; oldest groups are evicted. Default 64.
	MaxGroups int

	// groups[head:] are the live groups, oldest first; group serial s
	// sits at groups[head+int(s-headSerial)].
	groups     []group
	head       int
	headSerial uint32
	bySeq      rtp.SeqIndex // media seq -> group serials, in arrival order

	received  []uint64 // bitset over the 2^16 sequence numbers
	recvRing  []uint16 // received seqs in arrival order, recvNext oldest once full
	recvNext  int
	recovered int
}

type group struct {
	id        uint32
	serial    uint32
	protected []rtp.Packet
	done      bool
}

// receivedWindow bounds the received set to a window comfortably larger
// than any plausible reordering span.
const receivedWindow = 4096

// NewDecoder returns an empty FEC decoder.
func NewDecoder() *Decoder {
	return &Decoder{MaxGroups: 64}
}

// Recovered returns the number of packets reconstructed so far.
func (d *Decoder) Recovered() int { return d.recovered }

// OnMedia records an arrived media packet and returns any packets newly
// recoverable as a result (a group that was missing two packets may
// become recoverable when one of them arrives).
func (d *Decoder) OnMedia(seq uint16) []*rtp.Packet {
	d.markReceived(seq)
	var out []*rtp.Packet
	for p := d.bySeq.Find(seq); p >= 0; p = d.bySeq.FindNext(seq, p) {
		out = append(out, d.tryRecover(d.group(d.bySeq.Value(p)))...)
	}
	return out
}

// OnRepair records an arrived repair packet and returns any packets it
// recovers immediately.
func (d *Decoder) OnRepair(rep *Repair) []*rtp.Packet {
	for i := d.head; i < len(d.groups); i++ {
		if d.groups[i].id == rep.RepairID {
			return nil // duplicate
		}
	}
	serial := d.headSerial + uint32(len(d.groups)-d.head)
	d.pushGroup(group{id: rep.RepairID, serial: serial, protected: rep.Protected})
	for i := range rep.Protected {
		d.bySeq.Insert(rep.Protected[i].SequenceNumber, serial)
	}
	// The new group is the last slot; evict only advances head, so the
	// pointer stays valid even if MaxGroups evicts the new group itself.
	g := &d.groups[len(d.groups)-1]
	d.evict()
	return d.tryRecover(g)
}

// group returns the live group with the given serial.
func (d *Decoder) group(serial uint32) *group {
	return &d.groups[d.head+int(serial-d.headSerial)]
}

// pushGroup appends g, first sliding the live groups down when the
// backing array is full and evicted slots sit in front of them.
func (d *Decoder) pushGroup(g group) {
	if len(d.groups) == cap(d.groups) && d.head > 0 {
		n := copy(d.groups, d.groups[d.head:])
		clear(d.groups[n:])
		d.groups = d.groups[:n]
		d.head = 0
	}
	d.groups = append(d.groups, g)
}

// tryRecover returns the single missing packet of g if exactly one is
// missing, marking it received.
func (d *Decoder) tryRecover(g *group) []*rtp.Packet {
	if g.done {
		return nil
	}
	missing := -1
	for i := range g.protected {
		if d.has(g.protected[i].SequenceNumber) {
			continue
		}
		if missing >= 0 {
			return nil // two or more missing: unrecoverable yet
		}
		missing = i
	}
	g.done = true
	if missing < 0 {
		return nil // nothing missing
	}
	pkt := g.protected[missing]
	d.markReceived(pkt.SequenceNumber)
	d.recovered++
	out := []*rtp.Packet{&pkt}
	// Recovering this packet may unblock sibling groups.
	seq := pkt.SequenceNumber
	for p := d.bySeq.Find(seq); p >= 0; p = d.bySeq.FindNext(seq, p) {
		if s := d.bySeq.Value(p); s != g.serial {
			out = append(out, d.tryRecover(d.group(s))...)
		}
	}
	return out
}

// has reports whether seq is in the received window.
func (d *Decoder) has(seq uint16) bool {
	return d.received != nil && d.received[seq>>6]&(1<<(seq&63)) != 0
}

func (d *Decoder) markReceived(seq uint16) {
	if d.has(seq) {
		return
	}
	if d.received == nil {
		d.received = make([]uint64, 1<<16/64)
		d.recvRing = make([]uint16, 0, receivedWindow)
	}
	d.received[seq>>6] |= 1 << (seq & 63)
	if len(d.recvRing) < receivedWindow {
		d.recvRing = append(d.recvRing, seq)
		return
	}
	old := d.recvRing[d.recvNext]
	d.received[old>>6] &^= 1 << (old & 63)
	d.recvRing[d.recvNext] = seq
	d.recvNext = (d.recvNext + 1) % receivedWindow
}

func (d *Decoder) evict() {
	for len(d.groups)-d.head > d.MaxGroups {
		g := &d.groups[d.head]
		for i := range g.protected {
			d.bySeq.Delete(g.protected[i].SequenceNumber, g.serial)
		}
		d.head++
		d.headSerial++
	}
}
