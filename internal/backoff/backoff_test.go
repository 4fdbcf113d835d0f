package backoff

import (
	"testing"
	"time"
)

// TestJitterBackoff pins the full-jitter envelope: every delay is in
// [0, min(cap, base·2^k)], the ceiling saturates at the cap (shift
// overflow included), and a seed replays its schedule.
func TestJitterBackoff(t *testing.T) {
	jb, replay := New(10*time.Millisecond, 80*time.Millisecond, 1), New(10*time.Millisecond, 80*time.Millisecond, 1)
	for _, attempt := range []int{0, 1, 2, 3, 4, 9, 62, 64, 200} {
		ceil := 80 * time.Millisecond
		if attempt < 3 {
			ceil = 10 * time.Millisecond << uint(attempt)
		}
		for i := 0; i < 50; i++ {
			d := jb.Delay(attempt)
			if d < 0 || d > ceil {
				t.Fatalf("attempt %d: delay %v outside [0, %v]", attempt, d, ceil)
			}
			if r := replay.Delay(attempt); r != d {
				t.Fatalf("attempt %d draw %d: seed replayed %v, first run %v", attempt, i, r, d)
			}
		}
	}
}
