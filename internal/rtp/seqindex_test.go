package rtp

import (
	"math/rand"
	"slices"
	"testing"
)

// values lists the handles stored for seq, in visiting order.
func (x *SeqIndex) values(seq uint16) []uint32 {
	var out []uint32
	for p := x.Find(seq); p >= 0; p = x.FindNext(seq, p) {
		out = append(out, x.Value(p))
	}
	return out
}

// TestSeqIndexMatchesMap drives an index through inserts (several handles
// per key included), deletions and growth, with keys clustered around the
// 2^16 wrap so runs wrap round the table, and checks every key's handles
// and their insertion order against a map of slices.
func TestSeqIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var x SeqIndex
	model := map[uint16][]uint32{}
	n := 0
	for i := 0; i < 20_000; i++ {
		seq := uint16(65_500 + rng.Intn(100)) // wraps past 65535
		if rng.Intn(3) > 0 || len(model[seq]) == 0 {
			v := uint32(rng.Intn(4))
			x.Insert(seq, v)
			model[seq] = append(model[seq], v)
			n++
		} else {
			vals := model[seq]
			v := vals[rng.Intn(len(vals))]
			if !x.Delete(seq, v) {
				t.Fatalf("op %d: Delete(%d, %d) found nothing", i, seq, v)
			}
			at := slices.Index(vals, v)
			model[seq] = slices.Delete(vals, at, at+1)
			n--
		}
		if x.Len() != n {
			t.Fatalf("op %d: Len = %d, want %d", i, x.Len(), n)
		}
		if got := x.values(seq); !slices.Equal(got, model[seq]) {
			t.Fatalf("op %d: values(%d) = %v, want %v", i, seq, got, model[seq])
		}
		if n > 150 { // keep the table small enough to revisit every key
			for s, vals := range model {
				for _, v := range vals {
					x.Delete(s, v)
				}
				delete(model, s)
			}
			n = 0
		}
	}
	for s := 65_500; s < 65_600; s++ {
		if got := x.values(uint16(s)); !slices.Equal(got, model[uint16(s)]) {
			t.Fatalf("final values(%d) = %v, want %v", uint16(s), got, model[uint16(s)])
		}
	}
	if x.Delete(1000, 0) {
		t.Fatal("Delete of an absent key reported success")
	}
}
