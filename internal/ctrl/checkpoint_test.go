package ctrl

import (
	"strings"
	"testing"

	"github.com/twig-sched/twig/internal/checkpoint"
)

// A guard section whose service count times the old 33-byte estimate
// wraps to 1 must be rejected before anything is allocated for it.
func TestGuardDecodeRejectsWrappingCount(t *testing.T) {
	e := checkpoint.NewEncoder()
	e.Int(1117984489315730401) // ×33 is 2⁶⁴+1
	e.F64s(make([]float64, 8))
	g := NewGuard(&fakeCtrl{name: "twig-c", decide: smallAlloc}, DefaultGuardConfig(testCores))
	err := g.DecodeState(checkpoint.NewDecoder(e.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "exceeds payload") {
		t.Fatalf("crafted service count: err %v, want the count rejected", err)
	}
}

// The smallest service observation the encoder writes is at least the
// minimum the observation and guard lists are bounded by, so no count
// the encoder wrote can be rejected.
func TestServiceObsBytesFitsEncoder(t *testing.T) {
	e := checkpoint.NewEncoder()
	encodeServiceObs(e, ServiceObs{})
	if got := len(e.Bytes()); got < serviceObsBytes {
		t.Fatalf("a zero ServiceObs encodes to %d bytes, the decoder demands %d", got, serviceObsBytes)
	}
}
