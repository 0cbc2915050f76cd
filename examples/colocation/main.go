// Colocation: run Masstree and Moses side by side under Twig-C and under
// PARTIES, and compare QoS guarantee and energy — a miniature of the
// paper's Fig. 12/13 story.
//
//	go run ./examples/colocation
package main

import (
	"fmt"
	"log"

	"github.com/twig-sched/twig/twig"
)

const seconds = 4300

func main() {
	mass, _ := twig.LookupProfile("masstree")
	moses, _ := twig.LookupProfile("moses")
	cfg := twig.DefaultServerConfig()
	massTarget := twig.CalibrateQoSTarget(mass, cfg, 60, 1)
	mosesTarget := twig.CalibrateQoSTarget(moses, cfg, 60, 1)
	// Colocated services run at a fraction of their solo maxima.
	loads := []float64{0.25 * mass.MaxLoadRPS, 0.25 * moses.MaxLoadRPS}

	specs := []twig.ServiceSpec{
		{Profile: mass, QoSTargetMs: massTarget, Seed: 1},
		{Profile: moses, QoSTargetMs: mosesTarget, Seed: 2},
	}

	// Twig-C.
	srv := twig.NewServer(cfg, specs)
	twigC := twig.NewManager(twig.QuickConfig([]twig.ServiceConfig{
		{Name: "masstree", QoSTargetMs: massTarget, MaxLoadRPS: mass.MaxLoadRPS},
		{Name: "moses", QoSTargetMs: mosesTarget, MaxLoadRPS: moses.MaxLoadRPS},
	}, len(srv.ManagedCores()), srv.MaxPowerW()), srv.ManagedCores())
	tQoS, tPower := drive(srv, twigC, loads)

	// PARTIES.
	srv2 := twig.NewServer(cfg, specs)
	parties := twig.NewParties(twig.DefaultPartiesConfig(), srv2.ManagedCores(), 2)
	pQoS, pPower := drive(srv2, parties, loads)

	fmt.Println("manager   masstree-QoS  moses-QoS  avg power")
	fmt.Printf("twig-c    %10.1f%% %9.1f%% %9.1f W\n", tQoS[0]*100, tQoS[1]*100, tPower)
	fmt.Printf("parties   %10.1f%% %9.1f%% %9.1f W\n", pQoS[0]*100, pQoS[1]*100, pPower)
}

// drive runs the standard control loop and summarises the final 300 s.
func drive(srv *twig.Server, c twig.Controller, loads []float64) (qos [2]float64, power float64) {
	loop := twig.NewLoop(srv, c)
	copy(loop.Loads(), loads)
	n := 0
	for t := 0; t < seconds; t++ {
		res, _, err := loop.Step()
		if err != nil {
			log.Fatal(err)
		}
		if t < seconds-300 {
			continue
		}
		n++
		power += res.TruePowerW
		for k := 0; k < 2; k++ {
			if res.Services[k].P99Ms <= res.Services[k].QoSTargetMs {
				qos[k]++
			}
		}
	}
	qos[0] /= float64(n)
	qos[1] /= float64(n)
	return qos, power / float64(n)
}
