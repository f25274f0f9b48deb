package rtp

import (
	"slices"
	"time"
)

// NackGenerator tracks received RTP sequence numbers, detects gaps, and
// emits NACK lists for feedback packets. Each missing sequence is
// requested up to MaxRetries times with at least RetryInterval between
// requests, then abandoned. Not safe for concurrent use.
//
// The missing set is a deque ordered oldest first. Gaps only ever open
// ahead of the highest received sequence, so appending them in sequence
// order keeps the deque sorted by age against that anchor (SeqAge), a
// strict total order over the whole sequence space: Collect walks it
// without sorting, abandoning the oldest entry pops the front, and
// membership is a binary search by age.
type NackGenerator struct {
	// MaxRetries bounds requests per missing packet. Default 3.
	MaxRetries int
	// RetryInterval is the minimum spacing between requests for the
	// same sequence. Default 50 ms.
	RetryInterval time.Duration
	// MaxTracked bounds the missing set; the oldest entries are
	// abandoned beyond it. Default 256.
	MaxTracked int

	highest uint16
	started bool
	// missing[head:] is the missing set, oldest first.
	missing []nackEntry
	head    int
	// lapped and out are scratch for OnPacket and Collect.
	lapped     []nackEntry
	out        []uint16
	recovered  int
	abandoned  int
	duplicates int
}

type nackEntry struct {
	lastAsked time.Duration
	asks      int
	seq       uint16
	everAsked bool
}

// NewNackGenerator returns a generator with defaults.
func NewNackGenerator() *NackGenerator {
	return &NackGenerator{
		MaxRetries:    3,
		RetryInterval: 50 * time.Millisecond,
		MaxTracked:    256,
	}
}

// OnPacket records an arrived RTP sequence number, registering any gap it
// reveals and clearing the sequence from the missing set if it was a
// retransmission.
func (g *NackGenerator) OnPacket(seq uint16) {
	if !g.started {
		g.started = true
		g.highest = seq
		return
	}
	if i := g.seqFind(seq); i >= 0 {
		g.remove(i)
		g.recovered++
		return
	}
	if !SeqLess(g.highest, seq) {
		// Old duplicate or reordering we already accounted for.
		g.duplicates++
		return
	}
	// Register the gap (prev, seq) as missing. highest advances BEFORE
	// the loop: abandonment measures age against g.highest, and with
	// the old anchor every just-inserted sequence (ahead of the old
	// highest) would wrap around to look maximally old and be evicted
	// in place of the genuinely stale entries.
	prev := g.highest
	g.highest = seq
	span := SeqAge(seq, prev)
	// Entries left over from a previous lap of the sequence space whose
	// values fall inside the new gap are re-registered fresh, as a map
	// keyed by sequence would overwrite them. They sit at the front (the
	// oldest against prev) in gap order, and until re-registered they
	// count toward MaxTracked as the youngest entries, never abandoned.
	lapped := g.lapped[:0]
	for g.head < len(g.missing) && SeqAge(seq, g.missing[g.head].seq) < span {
		lapped = append(lapped, g.missing[g.head])
		g.head++
	}
	pendingLapped := len(lapped)
	for s := prev + 1; s != seq; s++ {
		if pendingLapped > 0 && lapped[len(lapped)-pendingLapped].seq == s {
			pendingLapped--
		}
		g.push(nackEntry{seq: s})
		if g.Missing()+pendingLapped > g.MaxTracked {
			g.head++ // abandon the oldest
			g.abandoned++
		}
	}
	g.lapped = lapped[:0]
}

// seqFind returns the index in g.missing of the entry for seq, or -1:
// a binary search over the deque's strictly decreasing ages.
func (g *NackGenerator) seqFind(seq uint16) int {
	age := SeqAge(g.highest, seq)
	lo, hi := g.head, len(g.missing)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if SeqAge(g.highest, g.missing[mid].seq) > age {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(g.missing) && g.missing[lo].seq == seq {
		return lo
	}
	return -1
}

// remove deletes g.missing[i], keeping the order.
func (g *NackGenerator) remove(i int) {
	if i == g.head {
		g.head++
		return
	}
	copy(g.missing[i:], g.missing[i+1:])
	g.missing = g.missing[:len(g.missing)-1]
}

// push appends e, first sliding the live entries down when the backing
// array is full and abandoned entries sit in front of them.
func (g *NackGenerator) push(e nackEntry) {
	if len(g.missing) == cap(g.missing) && g.head > 0 {
		n := copy(g.missing, g.missing[g.head:])
		g.missing = g.missing[:n]
		g.head = 0
	}
	g.missing = append(g.missing, e)
}

// Collect returns the sequences to NACK at time now, oldest first,
// respecting retry limits. Sequences that exhausted their retries are
// abandoned. The list is built in a reused scratch and returned as a
// caller-owned copy (a report carries it across the reverse link while
// later Collects run), or nil when there is nothing to request.
func (g *NackGenerator) Collect(now time.Duration) []uint16 {
	out := g.out[:0]
	kept := g.missing[:0]
	for _, e := range g.missing[g.head:] {
		if e.asks >= g.MaxRetries {
			g.abandoned++
			continue
		}
		if !e.everAsked || now-e.lastAsked >= g.RetryInterval {
			e.asks++
			e.lastAsked = now
			e.everAsked = true
			out = append(out, e.seq)
		}
		kept = append(kept, e)
	}
	g.missing = kept
	g.head = 0
	g.out = out
	if len(out) == 0 {
		return nil
	}
	return slices.Clone(out)
}

// Missing returns the current number of outstanding missing sequences.
func (g *NackGenerator) Missing() int { return len(g.missing) - g.head }

// Recovered returns how many missing sequences later arrived.
func (g *NackGenerator) Recovered() int { return g.recovered }

// Abandoned returns how many sequences were given up on.
func (g *NackGenerator) Abandoned() int { return g.abandoned }

// RtxBuffer is the sender-side retransmission store: the last cap
// distinct sequence numbers stored, in a ring kept in insertion order,
// with a SeqIndex from sequence number to ring slot. Re-storing a
// buffered sequence replaces its packet in place; a sequence stored
// again after it was evicted (a retransmission clone the pacer held past
// cap newer sends) is a new entry and evicts the oldest. Not safe for
// concurrent use.
type RtxBuffer struct {
	cap   int
	ring  []rtxSlot
	head  int
	index SeqIndex
}

type rtxSlot struct {
	pkt *Packet
	seq uint16
}

// NewRtxBuffer returns a buffer holding up to capacity packets (default
// 512 when capacity <= 0).
func NewRtxBuffer(capacity int) *RtxBuffer {
	if capacity <= 0 {
		capacity = 512
	}
	return &RtxBuffer{cap: capacity}
}

// Store remembers a sent packet for possible retransmission, evicting
// the oldest stored packet once the buffer is full.
func (b *RtxBuffer) Store(pkt *Packet) {
	seq := pkt.SequenceNumber
	if p := b.index.Find(seq); p >= 0 {
		b.ring[b.index.Value(p)].pkt = pkt
		return
	}
	if b.ring == nil {
		b.ring = make([]rtxSlot, 0, b.cap)
		b.index.Reserve(b.cap)
	}
	slot := len(b.ring)
	if slot < b.cap {
		b.ring = append(b.ring, rtxSlot{})
	} else {
		slot = b.head
		b.index.Delete(b.ring[slot].seq, uint32(slot))
		b.head = (b.head + 1) % b.cap
	}
	b.ring[slot] = rtxSlot{pkt: pkt, seq: seq}
	b.index.Insert(seq, uint32(slot))
}

// Get returns the stored packet for seq, if still buffered.
func (b *RtxBuffer) Get(seq uint16) (*Packet, bool) {
	p := b.index.Find(seq)
	if p < 0 {
		return nil, false
	}
	return b.ring[b.index.Value(p)].pkt, true
}

// Len returns the number of buffered packets.
func (b *RtxBuffer) Len() int { return len(b.ring) }
