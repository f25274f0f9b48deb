package fec

// Reference models for the loss-recovery bookkeeping: the map-keyed
// NackGenerator, RtxBuffer and Decoder the window-ring versions replaced,
// kept verbatim apart from their names. FuzzLossRecovery drives both
// versions with the same operations and requires identical answers.

import (
	"sort"
	"time"

	"rtcadapt/internal/rtp"
)

// refNackGenerator is rtp.NackGenerator with its missing set in a map.
type refNackGenerator struct {
	// MaxRetries bounds requests per missing packet. Default 3.
	MaxRetries int
	// RetryInterval is the minimum spacing between requests for the
	// same sequence. Default 50 ms.
	RetryInterval time.Duration
	// MaxTracked bounds the missing set; the oldest entries are
	// abandoned beyond it. Default 256.
	MaxTracked int

	highest    uint16
	started    bool
	missing    map[uint16]*refNackEntry
	recovered  int
	abandoned  int
	duplicates int
}

type refNackEntry struct {
	lastAsked time.Duration
	asks      int
	everAsked bool
}

// newRefNackGenerator returns a generator with defaults.
func newRefNackGenerator() *refNackGenerator {
	return &refNackGenerator{
		MaxRetries:    3,
		RetryInterval: 50 * time.Millisecond,
		MaxTracked:    256,
		missing:       make(map[uint16]*refNackEntry),
	}
}

// OnPacket records an arrived RTP sequence number, registering any gap it
// reveals and clearing the sequence from the missing set if it was a
// retransmission.
func (g *refNackGenerator) OnPacket(seq uint16) {
	if !g.started {
		g.started = true
		g.highest = seq
		return
	}
	if _, wasMissing := g.missing[seq]; wasMissing {
		delete(g.missing, seq)
		g.recovered++
		return
	}
	if !rtp.SeqLess(g.highest, seq) {
		// Old duplicate or reordering we already accounted for.
		g.duplicates++
		return
	}
	// Register the gap (prev, seq) as missing. highest advances BEFORE
	// the loop: abandonOldest measures age against g.highest, and with
	// the old anchor every just-inserted sequence (ahead of the old
	// highest) would wrap around to look maximally old and be evicted
	// in place of the genuinely stale entries.
	prev := g.highest
	g.highest = seq
	for s := prev + 1; s != seq; s++ {
		g.missing[s] = &refNackEntry{}
		if len(g.missing) > g.MaxTracked {
			g.abandonOldest()
		}
	}
}

// seqAge returns how far missing sequence s trails the highest received
// sequence — SeqAge anchored at g.highest. Unlike a SeqLess-based
// comparison, age against a single anchor induces a true total order
// over the whole sequence space, so ordering stays correct even when an
// entry has lingered through enough Collect cycles for the missing set
// to straddle the 2^16 wrap by more than half the space.
func (g *refNackGenerator) seqAge(s uint16) uint16 { return rtp.SeqAge(g.highest, s) }

// abandonOldest drops the missing entry that trails highest furthest
// (wrap-aware).
func (g *refNackGenerator) abandonOldest() {
	var oldest uint16
	var oldestAge uint16
	first := true
	for s := range g.missing {
		if age := g.seqAge(s); first || age > oldestAge {
			oldest, oldestAge = s, age
			first = false
		}
	}
	if !first {
		delete(g.missing, oldest)
		g.abandoned++
	}
}

// Collect returns the sequences to NACK at time now, respecting retry
// limits. Sequences that exhausted their retries are abandoned. Missing
// sequences are visited in wrap-aware order so retry bookkeeping and
// abandonment are independent of map iteration order.
func (g *refNackGenerator) Collect(now time.Duration) []uint16 {
	seqs := make([]uint16, 0, len(g.missing))
	for s := range g.missing {
		seqs = append(seqs, s)
	}
	// Oldest first, by age against the highest-received anchor. Ages are
	// distinct (sequences are map keys), so this is a strict total order
	// regardless of how far the set straddles the 2^16 wrap; a SeqLess
	// comparator would go non-transitive past half the sequence space
	// and leave the visit order at the sort algorithm's mercy.
	sort.Slice(seqs, func(i, j int) bool { return g.seqAge(seqs[i]) > g.seqAge(seqs[j]) })

	var out []uint16
	for _, s := range seqs {
		e := g.missing[s]
		if e.asks >= g.MaxRetries {
			delete(g.missing, s)
			g.abandoned++
			continue
		}
		if e.everAsked && now-e.lastAsked < g.RetryInterval {
			continue
		}
		e.asks++
		e.lastAsked = now
		e.everAsked = true
		out = append(out, s)
	}
	return out
}

// Missing returns the current number of outstanding missing sequences.
func (g *refNackGenerator) Missing() int { return len(g.missing) }

// Recovered returns how many missing sequences later arrived.
func (g *refNackGenerator) Recovered() int { return g.recovered }

// Abandoned returns how many sequences were given up on.
func (g *refNackGenerator) Abandoned() int { return g.abandoned }

// refRtxBuffer is rtp.RtxBuffer with a map from sequence number to
// packet beside a ring of sequences in insertion order.
type refRtxBuffer struct {
	cap   int
	bySeq map[uint16]*rtp.Packet
	order []uint16
	head  int
}

// newRefRtxBuffer returns a buffer holding up to capacity packets (default
// 512 when capacity <= 0).
func newRefRtxBuffer(capacity int) *refRtxBuffer {
	if capacity <= 0 {
		capacity = 512
	}
	return &refRtxBuffer{cap: capacity, bySeq: make(map[uint16]*rtp.Packet)}
}

// Store remembers a sent packet for possible retransmission, evicting
// the oldest stored packet once the buffer is full.
func (b *refRtxBuffer) Store(pkt *rtp.Packet) {
	if _, exists := b.bySeq[pkt.SequenceNumber]; exists {
		b.bySeq[pkt.SequenceNumber] = pkt
		return
	}
	if len(b.order) < b.cap {
		b.order = append(b.order, pkt.SequenceNumber)
	} else {
		delete(b.bySeq, b.order[b.head])
		b.order[b.head] = pkt.SequenceNumber
		b.head = (b.head + 1) % b.cap
	}
	b.bySeq[pkt.SequenceNumber] = pkt
}

// Get returns the stored packet for seq, if still buffered.
func (b *refRtxBuffer) Get(seq uint16) (*rtp.Packet, bool) {
	p, ok := b.bySeq[seq]
	return p, ok
}

// Len returns the number of buffered packets.
func (b *refRtxBuffer) Len() int { return len(b.bySeq) }

// refDecoder is Decoder with its groups, seq→group lists and received
// set in maps and re-sliced FIFOs.
type refDecoder struct {
	// MaxGroups bounds memory; oldest groups are evicted. Default 64.
	MaxGroups int

	groups    map[uint32]*refGroup
	order     []uint32
	bySeq     map[uint16][]uint32 // media seq -> group ids
	received  map[uint16]bool     // recently received media seqs
	seqOrder  []uint16
	recovered int
}

type refGroup struct {
	id        uint32
	protected []rtp.Packet
	done      bool
}

// newRefDecoder returns an empty FEC decoder.
func newRefDecoder() *refDecoder {
	return &refDecoder{
		MaxGroups: 64,
		groups:    make(map[uint32]*refGroup),
		bySeq:     make(map[uint16][]uint32),
		received:  make(map[uint16]bool),
	}
}

// Recovered returns the number of packets reconstructed so far.
func (d *refDecoder) Recovered() int { return d.recovered }

// OnMedia records an arrived media packet and returns any packets newly
// recoverable as a result (a group that was missing two packets may
// become recoverable when one of them arrives).
func (d *refDecoder) OnMedia(seq uint16) []*rtp.Packet {
	d.markReceived(seq)
	var out []*rtp.Packet
	for _, gid := range d.bySeq[seq] {
		if g, ok := d.groups[gid]; ok {
			out = append(out, d.tryRecover(g)...)
		}
	}
	return out
}

// OnRepair records an arrived repair packet and returns any packets it
// recovers immediately.
func (d *refDecoder) OnRepair(rep *Repair) []*rtp.Packet {
	if _, exists := d.groups[rep.RepairID]; exists {
		return nil // duplicate
	}
	g := &refGroup{id: rep.RepairID, protected: rep.Protected}
	d.groups[rep.RepairID] = g
	d.order = append(d.order, rep.RepairID)
	for i := range rep.Protected {
		seq := rep.Protected[i].SequenceNumber
		d.bySeq[seq] = append(d.bySeq[seq], rep.RepairID)
	}
	d.evict()
	return d.tryRecover(g)
}

// tryRecover returns the single missing packet of g if exactly one is
// missing, marking it received.
func (d *refDecoder) tryRecover(g *refGroup) []*rtp.Packet {
	if g.done {
		return nil
	}
	missing := -1
	for i := range g.protected {
		if !d.received[g.protected[i].SequenceNumber] {
			if missing >= 0 {
				return nil // two or more missing: unrecoverable yet
			}
			missing = i
		}
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
	for _, gid := range d.bySeq[pkt.SequenceNumber] {
		if sib, ok := d.groups[gid]; ok && sib != g {
			out = append(out, d.tryRecover(sib)...)
		}
	}
	return out
}

func (d *refDecoder) markReceived(seq uint16) {
	if d.received[seq] {
		return
	}
	d.received[seq] = true
	d.seqOrder = append(d.seqOrder, seq)
	// Bound the received set to a window comfortably larger than any
	// plausible reordering span.
	const maxSeqs = 4096
	for len(d.seqOrder) > maxSeqs {
		old := d.seqOrder[0]
		d.seqOrder = d.seqOrder[1:]
		delete(d.received, old)
	}
}

func (d *refDecoder) evict() {
	for len(d.order) > d.MaxGroups {
		old := d.order[0]
		d.order = d.order[1:]
		if g, ok := d.groups[old]; ok {
			for i := range g.protected {
				seq := g.protected[i].SequenceNumber
				ids := d.bySeq[seq][:0]
				for _, id := range d.bySeq[seq] {
					if id != old {
						ids = append(ids, id)
					}
				}
				if len(ids) == 0 {
					delete(d.bySeq, seq)
				} else {
					d.bySeq[seq] = ids
				}
			}
			delete(d.groups, old)
		}
	}
}
