package rtp

// SeqIndex maps RTP sequence numbers to small integer handles (ring
// slots, group serials) for the loss-recovery bookkeeping: the sender's
// retransmission store and the FEC decoder's seq→group lookup. It is an
// open-addressing table sized to the live window (at most half full)
// rather than to the 2^16 sequence space, whose home slot is the sequence
// number itself masked to the table size: the keys of a window are
// near-consecutive, so they land in distinct slots with no hashing.
//
// Consecutive keys also form one long occupied run, so the table keeps
// the Robin Hood invariant — along a run, entries are ordered by home
// slot — which lets a lookup stop at the first entry homed past its key
// and a deletion stop at the first entry sitting in its home slot: both
// are O(1) on a window, however long the run.
//
// A key may carry several handles (a sequence number protected by more
// than one FEC group). Entries for one key are visited in insertion
// order: an insert shifts the rest of the run up by one slot rather than
// swapping, a deletion shifts it back, and growth re-inserts runs front
// to back.
//
// The zero value is an empty index. Not safe for concurrent use.
type SeqIndex struct {
	slots []seqIndexSlot
	n     int
}

type seqIndexSlot struct {
	val  uint32
	seq  uint16
	used bool
}

// SeqSlot returns the home slot of seq in a power-of-two table whose
// size is mask+1: the sanctioned seq→slot mapping for window rings.
func SeqSlot(seq uint16, mask int) int { return int(seq) & mask }

// Len returns the number of entries.
func (x *SeqIndex) Len() int { return x.n }

// Reserve sizes an empty index for n entries without growth.
func (x *SeqIndex) Reserve(n int) {
	if x.n == 0 && len(x.slots) < 2*n {
		x.slots = make([]seqIndexSlot, seqIndexSize(n))
	}
}

// seqIndexSize is the smallest power of two holding n entries at most
// half full (16 at least).
func seqIndexSize(n int) int {
	size := 16
	for size < 2*n {
		size *= 2
	}
	return size
}

// Insert adds the entry (seq, v) after any existing entries for seq.
func (x *SeqIndex) Insert(seq uint16, v uint32) {
	if 2*(x.n+1) > len(x.slots) {
		x.grow()
	}
	x.place(seq, v)
	x.n++
}

// place puts (seq, v) at the first slot of its probe path that is empty
// or holds an entry homed after seq, shifting the rest of the run up.
func (x *SeqIndex) place(seq uint16, v uint32) {
	mask := len(x.slots) - 1
	i := SeqSlot(seq, mask)
	for d := 0; x.slots[i].used && x.dist(i) >= d; d++ {
		i = (i + 1) & mask
	}
	end := i
	for x.slots[end].used {
		end = (end + 1) & mask
	}
	for ; end != i; end = (end - 1) & mask {
		x.slots[end] = x.slots[(end-1)&mask]
	}
	x.slots[i] = seqIndexSlot{val: v, seq: seq, used: true}
}

// dist is how far the entry at position i sits past its home slot.
func (x *SeqIndex) dist(i int) int {
	mask := len(x.slots) - 1
	return (i - SeqSlot(x.slots[i].seq, mask)) & mask
}

// grow doubles the table. Re-insertion starts just past an empty slot
// (one exists: the table is at most half full), so every run is walked
// front to back and entries sharing a key keep their order.
func (x *SeqIndex) grow() {
	old := x.slots
	x.slots = make([]seqIndexSlot, seqIndexSize(x.n+1))
	start := 0
	for start < len(old) && old[start].used {
		start++
	}
	for k := 1; k <= len(old); k++ {
		if s := old[(start+k)%len(old)]; s.used {
			x.place(s.seq, s.val)
		}
	}
}

// Find returns the table position of the first entry for seq, or -1.
func (x *SeqIndex) Find(seq uint16) int {
	if x.n == 0 {
		return -1
	}
	return x.scan(seq, SeqSlot(seq, len(x.slots)-1))
}

// FindNext returns the position of the next entry for seq after position
// p (as returned by Find or FindNext), or -1.
func (x *SeqIndex) FindNext(seq uint16, p int) int {
	return x.scan(seq, (p+1)&(len(x.slots)-1))
}

// scan looks for seq from position i of its probe path. Past the first
// entry homed after seq's home, no entry for seq can follow.
func (x *SeqIndex) scan(seq uint16, i int) int {
	mask := len(x.slots) - 1
	d := (i - SeqSlot(seq, mask)) & mask
	for ; x.slots[i].used && x.dist(i) >= d; d++ {
		if x.slots[i].seq == seq {
			return i
		}
		i = (i + 1) & mask
	}
	return -1
}

// Value returns the handle stored at position p.
func (x *SeqIndex) Value(p int) uint32 { return x.slots[p].val }

// Delete removes the first entry (seq, v), reporting whether one existed.
// The rest of the run shifts back up to the first entry already in its
// home slot, so no tombstones accumulate.
func (x *SeqIndex) Delete(seq uint16, v uint32) bool {
	p := x.Find(seq)
	for p >= 0 && x.slots[p].val != v {
		p = x.FindNext(seq, p)
	}
	if p < 0 {
		return false
	}
	mask := len(x.slots) - 1
	next := (p + 1) & mask
	for x.slots[next].used && x.dist(next) > 0 {
		x.slots[p] = x.slots[next]
		p, next = next, (next+1)&mask
	}
	x.slots[p] = seqIndexSlot{}
	x.n--
	return true
}
