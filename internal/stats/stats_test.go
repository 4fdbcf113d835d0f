package stats

import (
	"math"
	"testing"

	"repro/internal/rng"
)

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

func TestBootstrapCICoversMedian(t *testing.T) {
	st := rng.New(5, 0, 0)
	// Samples around 10 with mild spread.
	var xs []float64
	for i := 0; i < 50; i++ {
		xs = append(xs, 10+math.Sin(float64(i))*0.5)
	}
	ci, err := BootstrapMedianCI(xs, 0.95, 1000, st)
	if err != nil {
		t.Fatal(err)
	}
	med := Median(xs)
	if med < ci.Lo || med > ci.Hi {
		t.Errorf("median %v outside CI [%v,%v]", med, ci.Lo, ci.Hi)
	}
	if ci.RelativeWidth(med) > 0.2 {
		t.Errorf("CI too wide: %v", ci.RelativeWidth(med))
	}
}

func TestBootstrapCIErrors(t *testing.T) {
	st := rng.New(1, 0, 0)
	if _, err := BootstrapMedianCI([]float64{1}, 0.95, 100, st); err == nil {
		t.Error("accepted single observation")
	}
	if _, err := BootstrapMedianCI([]float64{1, 2}, 1.5, 100, st); err == nil {
		t.Error("accepted level > 1")
	}
}

func TestRelativeWidthZeroCenter(t *testing.T) {
	ci := CI{Lo: -1, Hi: 1}
	if ci.RelativeWidth(0) != 0 {
		t.Error("zero center should give 0")
	}
}
