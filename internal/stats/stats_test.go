package stats

import "testing"

func TestMedian(t *testing.T) {
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if m := Median([]float64{7}); m != 7 {
		t.Errorf("single median = %v", m)
	}
	// Input must not be reordered.
	xs := []float64{5, 1, 3}
	Median(xs)
	if xs[0] != 5 || xs[2] != 3 {
		t.Error("Median mutated its input")
	}
}

func TestMedianPanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Median(nil)
}

func TestMean(t *testing.T) {
	if m := Mean([]float64{1, 2, 3, 4}); m != 2.5 {
		t.Errorf("mean = %v", m)
	}
}
