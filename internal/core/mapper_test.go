package core

import (
	"slices"
	"testing"

	"github.com/twig-sched/twig/internal/sim/platform"
)

func coresRange(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = 18 + i // socket-1 style IDs
	}
	return out
}

func TestMapperSingleService(t *testing.T) {
	m := NewMapper(coresRange(18))
	asg := m.Map([]Request{{Cores: 3, FreqGHz: 1.6}})
	a := asg.PerService[0]
	if len(a.Cores) != 3 || a.FreqGHz != 1.6 {
		t.Fatalf("allocation = %+v", a)
	}
	// Stride-2 locality: 18, 20, 22.
	want := []int{18, 20, 22}
	for i, c := range a.Cores {
		if c != want[i] {
			t.Fatalf("cores = %v, want %v", a.Cores, want)
		}
	}
	if asg.IdleFreqGHz != platform.MinFreqGHz {
		t.Fatal("idle cores must drop to the lowest DVFS state")
	}
}

func TestMapperTwoServicesDisjoint(t *testing.T) {
	m := NewMapper(coresRange(16))
	asg := m.Map([]Request{
		{Cores: 3, FreqGHz: 1.6},
		{Cores: 4, FreqGHz: 1.8},
	})
	seen := map[int]int{}
	for _, alloc := range asg.PerService {
		for _, c := range alloc.Cores {
			seen[c]++
		}
	}
	for c, n := range seen {
		if n > 1 {
			t.Fatalf("core %d assigned %d times in a feasible mapping", c, n)
		}
	}
	// Services occupy separate regions (paper's example: sv-1 low cores,
	// sv-2 high cores).
	max0 := asg.PerService[0].Cores[len(asg.PerService[0].Cores)-1]
	min1 := asg.PerService[1].Cores[0]
	if max0 >= min1 {
		t.Fatalf("regions overlap: sv0 up to %d, sv1 from %d", max0, min1)
	}
}

func TestMapperFillsOddPositionsWhenDense(t *testing.T) {
	m := NewMapper(coresRange(8))
	asg := m.Map([]Request{{Cores: 6, FreqGHz: 2.0}})
	if len(asg.PerService[0].Cores) != 6 {
		t.Fatalf("cores = %v", asg.PerService[0].Cores)
	}
}

func TestMapperArbitrationOverlap(t *testing.T) {
	// Paper example: 10 cores, sv-1 wants 8 @1.2, sv-2 wants 5 @2.0 →
	// 3 cores time-shared.
	m := NewMapper(coresRange(10))
	asg := m.Map([]Request{
		{Cores: 8, FreqGHz: 1.2},
		{Cores: 5, FreqGHz: 2.0},
	})
	if len(asg.PerService[0].Cores) != 8 || len(asg.PerService[1].Cores) != 5 {
		t.Fatalf("requested core counts must be honoured: %v / %v",
			asg.PerService[0].Cores, asg.PerService[1].Cores)
	}
	shared := map[int]bool{}
	owners := map[int]int{}
	for _, alloc := range asg.PerService {
		for _, c := range alloc.Cores {
			owners[c]++
			if owners[c] > 1 {
				shared[c] = true
			}
		}
	}
	if len(shared) != 3 {
		t.Fatalf("expected 3 time-shared cores, got %d", len(shared))
	}
}

func TestMapperRequestValidation(t *testing.T) {
	m := NewMapper(coresRange(4))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for oversized request")
		}
	}()
	m.Map([]Request{{Cores: 5, FreqGHz: 2.0}})
}

func TestMapperEmptyCoresPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMapper(nil)
}

func TestPickStride2(t *testing.T) {
	region := []int{0, 1, 2, 3, 4, 5}
	got := make([]int, 3)
	pickStride2(got, region)
	want := []int{0, 2, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pickStride2 = %v", got)
		}
	}
	// Needing more than the even positions fills odd ones too.
	got = make([]int, 5)
	pickStride2(got, region)
	if !slices.Equal(got, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("pickStride2 dense = %v", got)
	}
}

// mapperCases are disjoint and over-committed request sets over 18
// cores for k = 1…3 services (one service cannot over-commit).
var mapperCases = []struct {
	name   string
	shared bool
	reqs   []Request
}{
	{"disjoint/k1", false, []Request{{Cores: 5, FreqGHz: 1.6}}},
	{"disjoint/k2", false, []Request{{Cores: 3, FreqGHz: 1.6}, {Cores: 7, FreqGHz: 2.0}}},
	{"disjoint/k3", false, []Request{{Cores: 6, FreqGHz: 1.2}, {Cores: 6, FreqGHz: 1.5}, {Cores: 6, FreqGHz: 1.8, CacheWays: 4}}},
	{"shared/k2", true, []Request{{Cores: 12, FreqGHz: 1.2}, {Cores: 9, FreqGHz: 2.0}}},
	{"shared/k3", true, []Request{{Cores: 18, FreqGHz: 1.4}, {Cores: 1, FreqGHz: 1.9}, {Cores: 10, FreqGHz: 1.3}}},
}

// Map is two allocations whatever the request set: the PerService slice
// and the one array every service's cores are a sub-slice of.
func TestMapAllocsTwo(t *testing.T) {
	m := NewMapper(coresRange(18))
	for _, tc := range mapperCases {
		total := 0
		for _, r := range tc.reqs {
			total += r.Cores
		}
		if shared := total > m.NumCores(); shared != tc.shared {
			t.Fatalf("%s: %d cores requested of %d, shared = %v", tc.name, total, m.NumCores(), shared)
		}
		if got := testing.AllocsPerRun(50, func() { m.Map(tc.reqs) }); got != 2 {
			t.Errorf("%s: Map made %v allocations, want 2", tc.name, got)
		}
	}
}

// A holder may append to the cores it was handed: service i's cores end
// at their own capacity, so the append moves them and service i + 1
// keeps what the mapper gave it.
func TestMapCoresAppendLeavesNextService(t *testing.T) {
	m := NewMapper(coresRange(18))
	for _, tc := range mapperCases {
		asg := m.Map(tc.reqs)
		for i := 0; i+1 < len(asg.PerService); i++ {
			next := slices.Clone(asg.PerService[i+1].Cores)
			grown := append(asg.PerService[i].Cores, -1, -2, -3)
			if !slices.Equal(asg.PerService[i+1].Cores, next) {
				t.Fatalf("%s: appending to service %d's cores changed service %d: %v, was %v",
					tc.name, i, i+1, asg.PerService[i+1].Cores, next)
			}
			if grown[len(grown)-1] != -3 {
				t.Fatalf("%s: append lost its elements: %v", tc.name, grown)
			}
		}
		for i, al := range asg.PerService {
			if len(al.Cores) != tc.reqs[i].Cores || cap(al.Cores) != len(al.Cores) {
				t.Fatalf("%s: service %d cores %v (cap %d), want %d cores at capacity",
					tc.name, i, al.Cores, cap(al.Cores), tc.reqs[i].Cores)
			}
		}
	}
}
