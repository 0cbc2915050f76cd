package faults

import (
	"reflect"
	"testing"
)

func cores() []int {
	out := make([]int, 18)
	for i := range out {
		out[i] = 18 + i
	}
	return out
}

// The headline property: the same scenario and seed reproduce the
// identical fault schedule, regardless of anything the controller does.
func TestInjectorDeterministic(t *testing.T) {
	for _, name := range Names() {
		sc := MustNamed(name)
		a := NewInjector(sc, 42, 2, cores())
		b := NewInjector(sc, 42, 2, cores())
		for i := 0; i < 1500; i++ {
			ea := append([]Event(nil), a.Advance()...)
			eb := append([]Event(nil), b.Advance()...)
			if !reflect.DeepEqual(ea, eb) {
				t.Fatalf("%s: schedules diverge at t=%d: %v vs %v", name, i, ea, eb)
			}
		}
		if !reflect.DeepEqual(a.log, b.log) {
			t.Fatalf("%s: logs differ", name)
		}
	}
}

func TestInjectorSeedMatters(t *testing.T) {
	sc := MustNamed("hostile")
	a := NewInjector(sc, 1, 2, cores())
	b := NewInjector(sc, 2, 2, cores())
	for i := 0; i < 2000; i++ {
		a.Advance()
		b.Advance()
	}
	if reflect.DeepEqual(a.log, b.log) {
		t.Fatal("different seeds produced the identical schedule")
	}
	if len(a.log) == 0 || len(b.log) == 0 {
		t.Fatal("hostile scenario scheduled no faults in 2000 intervals")
	}
}

func TestCrashEpisodesPeriodicAndRotating(t *testing.T) {
	sc := Scenario{CrashPeriodS: 100, CrashOfflineS: 7}
	inj := NewInjector(sc, 5, 3, cores())
	var crashes []Event
	for i := 0; i < 650; i++ {
		inj.Advance()
	}
	for _, e := range inj.log {
		if e.Kind == ServiceCrash {
			crashes = append(crashes, e)
		}
	}
	if len(crashes) != 6 {
		t.Fatalf("crashes = %d, want 6", len(crashes))
	}
	for i, e := range crashes {
		if e.Start != (i+1)*100 || e.Duration != 7 {
			t.Fatalf("crash %d at %d+%d", i, e.Start, e.Duration)
		}
		if e.Service != i%3 {
			t.Fatalf("crash %d hit service %d, want rotation", i, e.Service)
		}
	}
}

func TestZeroScenarioInjectsNothing(t *testing.T) {
	inj := NewInjector(Scenario{}, 9, 4, cores())
	for i := 0; i < 500; i++ {
		if ev := inj.Advance(); len(ev) != 0 {
			t.Fatalf("zero scenario injected %v", ev)
		}
	}
	if !(Scenario{}).IsZero() {
		t.Fatal("IsZero")
	}
	if MustNamed("sensor").IsZero() {
		t.Fatal("sensor scenario reads as zero")
	}
}

func TestEventActiveAt(t *testing.T) {
	e := Event{Start: 10, Duration: 3}
	for tt, want := range map[int]bool{9: false, 10: true, 12: true, 13: false} {
		if e.ActiveAt(tt) != want {
			t.Fatalf("ActiveAt(%d) = %v", tt, !want)
		}
	}
}

func TestEventAndKindStrings(t *testing.T) {
	e := Event{Kind: CoreFail, Service: -1, Core: 21, Start: 5, Duration: 2}
	if e.String() == "" || e.Kind.String() != "core-fail" {
		t.Fatalf("strings: %q %q", e.String(), e.Kind.String())
	}
	if Kind(99).String() == "" {
		t.Fatal("out-of-range kind string")
	}
}
