package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestWriteProfileFormat(t *testing.T) {
	r := &Record{
		Input: "er_1000_32", Seed: 42, Trial: 1, N: 1000, M: 16000,
		Time: 428972 * time.Microsecond, MPITime: 11905 * time.Microsecond,
		Algorithm: "cc", P: 4, Result: 1, Supersteps: 9, CommVolume: 1234,
	}
	var buf bytes.Buffer
	if err := r.WriteProfile(&buf); err != nil {
		t.Fatal(err)
	}
	line := buf.String()
	if !strings.HasPrefix(line, "er_1000_32,42,1,1000,16000,0.428972,0.011905,cc,4,1,9,1234") {
		t.Errorf("line = %q", line)
	}
	if !strings.HasSuffix(line, "\n") {
		t.Error("missing newline")
	}
}
