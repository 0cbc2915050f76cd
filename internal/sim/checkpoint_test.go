package sim

import (
	"strings"
	"testing"

	"github.com/twig-sched/twig/internal/checkpoint"
)

// An assignment whose service count times 20 bytes wraps to 0 must be
// rejected before its slice is made.
func TestDecodeAssignmentRejectsWrappingCount(t *testing.T) {
	e := checkpoint.NewEncoder()
	e.Bool(true)
	e.Int(1 << 62)
	e.F64(1.2)
	_, err := DecodeAssignment(checkpoint.NewDecoder(e.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "exceeds payload") {
		t.Fatalf("crafted service count: err %v, want the count rejected", err)
	}
}

// The smallest allocation the encoder writes is at least the minimum
// DecodeAssignment bounds its count by.
func TestAllocationBytesFitsEncoder(t *testing.T) {
	size := func(asg Assignment) int {
		e := checkpoint.NewEncoder()
		EncodeAssignment(e, asg)
		return len(e.Bytes())
	}
	one := size(Assignment{PerService: []Allocation{{}}}) - size(Assignment{PerService: []Allocation{}})
	if one < allocationBytes {
		t.Fatalf("a zero Allocation encodes to %d bytes, the decoder demands %d", one, allocationBytes)
	}
}
