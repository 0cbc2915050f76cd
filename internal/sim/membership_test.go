package sim

import (
	"bytes"
	"errors"
	"testing"

	"github.com/twig-sched/twig/internal/checkpoint"
	"github.com/twig-sched/twig/internal/sim/faults"
	"github.com/twig-sched/twig/internal/sim/service"
)

func membershipServer(t *testing.T, names ...string) *Server {
	t.Helper()
	return newTestServer(names...)
}

// Admitting a service mid-run must not disturb the state of the ones
// already hosted: the survivors' trajectory continues from where it was.
func TestAddServicePreservesExistingState(t *testing.T) {
	srv := membershipServer(t, "masstree")
	cores := srv.ManagedCores()
	asg := Assignment{PerService: []Allocation{{Cores: cores, FreqGHz: 2.0}}}
	load := []float64{0.5 * service.MustLookup("masstree").MaxLoadRPS}
	for i := 0; i < 20; i++ {
		srv.MustStep(asg, load)
	}
	clock := srv.Clock()

	if err := srv.AddService(ServiceSpec{Profile: service.MustLookup("xapian"), QoSTargetMs: 8, Seed: 99}); err != nil {
		t.Fatalf("AddService: %v", err)
	}
	if srv.NumServices() != 2 {
		t.Fatalf("NumServices = %d after add, want 2", srv.NumServices())
	}
	if srv.Clock() != clock {
		t.Fatalf("clock moved from %d to %d on AddService", clock, srv.Clock())
	}

	// The grown server must accept a 2-service assignment and report
	// per-service stats for both.
	half := len(cores) / 2
	asg2 := Assignment{PerService: []Allocation{
		{Cores: cores[:half], FreqGHz: 2.0},
		{Cores: cores[half:], FreqGHz: 2.0},
	}}
	loads2 := []float64{load[0], 0.3 * service.MustLookup("xapian").MaxLoadRPS}
	res := srv.MustStep(asg2, loads2)
	if len(res.Services) != 2 {
		t.Fatalf("step reports %d services, want 2", len(res.Services))
	}
	if res.Services[1].NumCores != len(cores)-half {
		t.Fatalf("new service got %d cores, want %d", res.Services[1].NumCores, len(cores)-half)
	}
}

// Removing a service must compact indices: the survivor that used to be
// index 1 becomes index 0 and keeps its cores through the owner remap.
func TestRemoveServiceRemapsOwners(t *testing.T) {
	srv := membershipServer(t, "masstree", "xapian")
	cores := srv.ManagedCores()
	half := len(cores) / 2
	asg := Assignment{PerService: []Allocation{
		{Cores: cores[:half], FreqGHz: 1.8},
		{Cores: cores[half:], FreqGHz: 1.8},
	}}
	loads := []float64{
		0.4 * service.MustLookup("masstree").MaxLoadRPS,
		0.4 * service.MustLookup("xapian").MaxLoadRPS,
	}
	srv.MustStep(asg, loads)

	if err := srv.RemoveService(0); err != nil {
		t.Fatalf("RemoveService: %v", err)
	}
	if srv.NumServices() != 1 {
		t.Fatalf("NumServices = %d after remove, want 1", srv.NumServices())
	}
	if got := srv.Spec(0).Profile.Name; got != "xapian" {
		t.Fatalf("survivor is %q, want xapian", got)
	}
	// The survivor's affinity (previously index 1) must now read as
	// index 0 on the platform, and the departed service's entries gone.
	got := srv.Platform().ServiceCores(0)
	if len(got) != len(cores)-half {
		t.Fatalf("survivor owns %d cores after remap, want %d", len(got), len(cores)-half)
	}
	if extra := srv.Platform().ServiceCores(1); len(extra) != 0 {
		t.Fatalf("stale owner entries for old index 1: %v", extra)
	}
	// And a 1-service step must run cleanly.
	res := srv.MustStep(Assignment{PerService: []Allocation{{Cores: cores[half:], FreqGHz: 1.8}}}, loads[1:])
	if len(res.Services) != 1 {
		t.Fatalf("step reports %d services, want 1", len(res.Services))
	}
}

func TestRemoveServiceOutOfRange(t *testing.T) {
	srv := membershipServer(t, "masstree")
	if err := srv.RemoveService(1); err == nil {
		t.Fatal("RemoveService(1) on a 1-service server succeeded")
	}
	if err := srv.RemoveService(-1); err == nil {
		t.Fatal("RemoveService(-1) succeeded")
	}
}

// Membership changes are rejected while fault injection is armed: the
// injector's schedule is sized to the service count at construction, so
// growing or shrinking it would change every later fault draw.
func TestMembershipChangeRejectedUnderFaults(t *testing.T) {
	fs, err := faults.Named("crash")
	if err != nil {
		t.Fatalf("faults.Named: %v", err)
	}
	cfg := DefaultConfig()
	cfg.Faults = &fs
	srv := NewServer(cfg, []ServiceSpec{{Profile: service.MustLookup("masstree"), QoSTargetMs: 5, Seed: 1}})

	if err := srv.AddService(ServiceSpec{Profile: service.MustLookup("xapian"), Seed: 2}); !errors.Is(err, ErrFaultsArmed) {
		t.Fatalf("AddService under faults: err = %v, want ErrFaultsArmed", err)
	}
	if err := srv.RemoveService(0); !errors.Is(err, ErrFaultsArmed) {
		t.Fatalf("RemoveService under faults: err = %v, want ErrFaultsArmed", err)
	}
}

// Step's working storage is sized by the membership of the moment. After
// step → add → step → remove → step, the server must carry on exactly as
// a server built with the final membership and restored from its state
// does — nothing of the departed service, and nothing sized for three,
// may reach a result.
func TestMembershipChangesResizeStepStorage(t *testing.T) {
	srv := membershipServer(t, "masstree", "xapian")
	for i := 0; i < 5; i++ {
		srv.MustStep(splitAlloc(srv, i, 2), loadsFor(srv, 0.4))
	}
	if err := srv.AddService(ServiceSpec{Profile: service.MustLookup("moses"), QoSTargetMs: 9, Seed: 77}); err != nil {
		t.Fatalf("AddService: %v", err)
	}
	for i := 5; i < 10; i++ {
		if res := srv.MustStep(splitAlloc(srv, i, 0), loadsFor(srv, 0.4)); len(res.Services) != 3 {
			t.Fatalf("step reports %d services after the add, want 3", len(res.Services))
		}
	}
	if err := srv.RemoveService(0); err != nil {
		t.Fatalf("RemoveService: %v", err)
	}
	srv.MustStep(splitAlloc(srv, 10, 4), loadsFor(srv, 0.4))

	fresh := NewServer(DefaultConfig(), []ServiceSpec{srv.Spec(0), srv.Spec(1)})
	if err := fresh.DecodeState(checkpoint.NewDecoder(serverBytes(srv))); err != nil {
		t.Fatalf("restore into a server built with the final membership: %v", err)
	}
	for i := 11; i < 30; i++ {
		if i == 20 {
			// Growing again reuses the slot the removal vacated.
			for _, s := range []*Server{srv, fresh} {
				if err := s.AddService(ServiceSpec{Profile: service.MustLookup("img-dnn"), QoSTargetMs: 9, Seed: 5}); err != nil {
					t.Fatalf("AddService: %v", err)
				}
			}
		}
		got := srv.MustStep(splitAlloc(srv, i, i%5), loadsFor(srv, 0.5))
		want := fresh.MustStep(splitAlloc(fresh, i, i%5), loadsFor(fresh, 0.5))
		if !bytes.Equal(resultBytes(got), resultBytes(want)) {
			t.Fatalf("interval %d: server that changed membership diverged from one built with it", i)
		}
		if !bytes.Equal(serverBytes(srv), serverBytes(fresh)) {
			t.Fatalf("interval %d: server that changed membership encodes differently", i)
		}
	}
}
