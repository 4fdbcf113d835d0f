package service

import (
	"testing"
)

func TestSideVertices(t *testing.T) {
	cases := []struct {
		name string
		side []bool
		want []int32
	}{
		{"empty", nil, []int32{}},
		{"all false", []bool{false, false, false}, []int32{}},
		{"minority true kept", []bool{true, false, false, true}, []int32{0, 3}},
		{"majority true flipped", []bool{true, true, true, false}, []int32{3}},
		{"tie at n/2 keeps the true shore", []bool{true, false, true, false}, []int32{0, 2}},
		{"all true flips to empty", []bool{true, true}, []int32{}},
	}
	for _, c := range cases {
		got := sideVertices(c.side)
		if len(got) != len(c.want) {
			t.Errorf("%s: sideVertices(%v) = %v, want %v", c.name, c.side, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s: sideVertices(%v) = %v, want %v", c.name, c.side, got, c.want)
				break
			}
		}
	}
}
