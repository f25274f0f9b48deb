package main

import (
	"reflect"
	"testing"
)

func TestSeedRange(t *testing.T) {
	got, err := seedRange(3)
	if err != nil || !reflect.DeepEqual(got, []int64{1, 2, 3}) {
		t.Errorf("seedRange(3) = %v, %v; want [1 2 3]", got, err)
	}
	for _, n := range []int{0, -1} {
		if seeds, err := seedRange(n); err == nil {
			t.Errorf("seedRange(%d) = %v, want an error", n, seeds)
		}
	}
}
