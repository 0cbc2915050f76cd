// Quickstart: manage a single latency-critical service (Masstree) with
// Twig on the simulated server, using the public twig API.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"github.com/twig-sched/twig/twig"
)

func main() {
	// 1. Pick a service profile and calibrate its QoS target the way
	//    the paper does (p99 at max load, full socket, max DVFS).
	prof, err := twig.LookupProfile("masstree")
	if err != nil {
		log.Fatal(err)
	}
	cfg := twig.DefaultServerConfig()
	target := twig.CalibrateQoSTarget(prof, cfg, 60, 1)
	fmt.Printf("masstree: max load %.0f rps, QoS target %.2f ms\n", prof.MaxLoadRPS, target)

	// 2. Build the simulated server and a Twig-S manager (QuickConfig
	//    anneals exploration over ~3800 steps; PaperConfig uses the
	//    paper's full 25 000-step schedule).
	srv := twig.NewServer(cfg, []twig.ServiceSpec{{Profile: prof, QoSTargetMs: target, Seed: 1}})
	svcCfg := twig.ServiceConfig{
		Name:        prof.Name,
		QoSTargetMs: target,
		MaxLoadRPS:  prof.MaxLoadRPS,
	}
	mgr := twig.NewManager(
		twig.QuickConfig([]twig.ServiceConfig{svcCfg}, len(srv.ManagedCores()), srv.MaxPowerW()),
		srv.ManagedCores())

	// 3. Run the 1 s control loop at 40% load: decide → act → observe,
	//    falling back to the last valid assignment if a decision fails.
	const seconds = 4300
	load := twig.FixedLoad(0.4 * prof.MaxLoadRPS)
	loop := twig.NewLoop(srv, mgr)
	met, total := 0, 0
	var energy float64
	for t := 0; t < seconds; t++ {
		loop.Loads()[0] = load.RPS(t)
		res, _, err := loop.Step()
		if err != nil {
			log.Fatal(err)
		}

		sv := res.Services[0]
		if t >= seconds-300 { // summarise after the learning phase
			total++
			energy += res.EnergyJ
			if sv.P99Ms <= sv.QoSTargetMs {
				met++
			}
		}
		if (t+1)%600 == 0 {
			fmt.Printf("t=%4ds  %2d cores @ %.1f GHz  p99=%7.2f ms  power=%5.1f W  ε=%.2f\n",
				t+1, sv.NumCores, sv.FreqGHz, sv.P99Ms, res.TruePowerW, mgr.Agent().Epsilon())
		}
	}
	fmt.Printf("\nQoS guarantee over the last 300 s: %.1f%%  (avg power %.1f W)\n",
		100*float64(met)/float64(total), energy/float64(total))
}
