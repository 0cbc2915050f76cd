package twig_test

import (
	"fmt"

	"github.com/twig-sched/twig/twig"
)

// Example shows the complete Twig control loop on the simulated server:
// calibrate a QoS target, build a manager, and run decide→act→observe
// once per monitoring interval through the interval kernel.
func Example() {
	prof, _ := twig.LookupProfile("masstree")
	cfg := twig.DefaultServerConfig()
	target := twig.CalibrateQoSTarget(prof, cfg, 30, 1)

	srv := twig.NewServer(cfg, []twig.ServiceSpec{{Profile: prof, QoSTargetMs: target, Seed: 1}})
	svc := twig.ServiceConfig{Name: prof.Name, QoSTargetMs: target, MaxLoadRPS: prof.MaxLoadRPS}
	mgr := twig.NewManager(
		twig.QuickConfig([]twig.ServiceConfig{svc}, len(srv.ManagedCores()), srv.MaxPowerW()),
		srv.ManagedCores())

	loop := twig.NewLoop(srv, mgr)
	loop.Loads()[0] = 0.3 * prof.MaxLoadRPS
	for t := 0; t < 25; t++ {
		if _, _, err := loop.Step(); err != nil {
			panic(err)
		}
	}
	fmt.Println(srv.Clock(), "intervals managed by", mgr.Name())
	// Output: 25 intervals managed by twig-s
}
