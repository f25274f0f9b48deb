package simtime

import "time"

// entry is one queued event: its ordering key stored inline next to the
// record it fires, so sifting compares entries without loading records.
type entry struct {
	at  time.Duration
	seq uint64
	ev  *event
}

// before orders entries by deadline, then scheduling order. seq is unique
// per event, so the order is total and pop order never depends on the
// heap's internal array layout.
func (a entry) before(b entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// eventHeap is a binary min-heap of entries. Each queued record's index
// field mirrors its entry's position so Cancel can remove interior
// elements in O(log n).
type eventHeap []entry

// push appends e and restores the heap property.
func (h *eventHeap) push(e entry) {
	*h = append(*h, e)
	h.siftUp(len(*h)-1, e)
}

// removeAt removes the entry at index i: the root when an event fires, an
// interior entry when one is canceled. The last entry refills the hole
// and sifts whichever way restores the order.
func (h *eventHeap) removeAt(i int) {
	q := *h
	n := len(q) - 1
	q[i].ev.index = -1
	last := q[n]
	q[n] = entry{}
	*h = q[:n]
	if i == n {
		return
	}
	if i > 0 && last.before(q[(i-1)/2]) {
		h.siftUp(i, last)
	} else {
		h.siftDown(i, last)
	}
}

// siftUp places e, which belongs at or above index i, by moving larger
// ancestors down into the hole.
func (h eventHeap) siftUp(i int, e entry) {
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].ev.index = i
		i = parent
	}
	h[i] = e
	e.ev.index = i
}

// siftDown places e, which belongs at or below index i, by moving smaller
// children up into the hole.
func (h eventHeap) siftDown(i int, e entry) {
	n := len(h)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n && h[right].before(h[child]) {
			child = right
		}
		if !h[child].before(e) {
			break
		}
		h[i] = h[child]
		h[i].ev.index = i
		i = child
	}
	h[i] = e
	e.ev.index = i
}
