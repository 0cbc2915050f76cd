// Diurnal: drive Img-dnn with the day/night load pattern common in data
// centres (Sec. V-B) and watch Twig track it, shrinking the allocation
// at night and growing it for the daytime peak.
//
//	go run ./examples/diurnal
package main

import (
	"fmt"
	"log"

	"github.com/twig-sched/twig/twig"
)

func main() {
	prof, _ := twig.LookupProfile("img-dnn")
	cfg := twig.DefaultServerConfig()
	target := twig.CalibrateQoSTarget(prof, cfg, 60, 1)
	srv := twig.NewServer(cfg, []twig.ServiceSpec{{Profile: prof, QoSTargetMs: target, Seed: 1}})
	svc := twig.ServiceConfig{Name: prof.Name, QoSTargetMs: target, MaxLoadRPS: prof.MaxLoadRPS}
	mgr := twig.NewManager(
		twig.QuickConfig([]twig.ServiceConfig{svc}, len(srv.ManagedCores()), srv.MaxPowerW()),
		srv.ManagedCores())

	// A compressed "day": one period of the sinusoid spans 1800 s, so
	// the run sees several days while learning.
	day := twig.DiurnalLoad{
		MinRPS:  0.2 * prof.MaxLoadRPS,
		MaxRPS:  0.8 * prof.MaxLoadRPS,
		PeriodS: 1800,
	}

	const seconds = 7200
	loop := twig.NewLoop(srv, mgr)
	met, total := 0, 0
	var energy float64
	for t := 0; t < seconds; t++ {
		loop.Loads()[0] = day.RPS(t)
		res, _, err := loop.Step()
		if err != nil {
			log.Fatal(err)
		}
		sv := res.Services[0]
		if t >= seconds/2 {
			total++
			energy += res.EnergyJ
			if sv.P99Ms <= sv.QoSTargetMs {
				met++
			}
		}
		if t >= seconds-1800 && (t+1)%200 == 0 {
			fmt.Printf("t=%4ds load=%4.0f rps → %2d cores @ %.1f GHz, p99 %6.2f/%.2f ms, %5.1f W\n",
				t+1, day.RPS(t), sv.NumCores, sv.FreqGHz, sv.P99Ms, sv.QoSTargetMs, res.TruePowerW)
		}
	}
	fmt.Printf("\nsecond half of the run: QoS guarantee %.1f%%, avg power %.1f W\n",
		100*float64(met)/float64(total), energy/float64(total))
}
