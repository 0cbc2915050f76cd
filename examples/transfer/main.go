// Transfer: train Twig on one service, then move the learned network to
// a brand-new service — the Sec. IV transfer-learning workflow. The
// final layers are re-initialised and exploration restarts mid-schedule,
// so the manager adapts far faster than learning from scratch (Fig. 8).
//
//	go run ./examples/transfer
package main

import (
	"bytes"
	"fmt"
	"log"

	"github.com/twig-sched/twig/twig"
)

func main() {
	cfg := twig.DefaultServerConfig()
	donorName, targetName := "masstree", "xapian"

	// Phase 1: train on the donor service.
	donorProf, _ := twig.LookupProfile(donorName)
	donorTarget := twig.CalibrateQoSTarget(donorProf, cfg, 60, 1)
	donorSrv := twig.NewServer(cfg, []twig.ServiceSpec{{Profile: donorProf, QoSTargetMs: donorTarget, Seed: 1}})
	donor := newQuickManager(donorSrv, donorName, donorTarget, donorProf.MaxLoadRPS)
	run(donorSrv, donor, 0.5*donorProf.MaxLoadRPS, 4000, nil)

	// Checkpoint the full manager state — networks with their Adam
	// moments, the replay buffer, step counters and RNG position, not
	// just the weights.
	var ckpt bytes.Buffer
	if err := donor.SaveCheckpoint(&ckpt); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained on %s; checkpointed %d bytes of manager state\n\n", donorName, ckpt.Len())

	// Phase 2: the target service, from scratch vs with transfer.
	targetProf, _ := twig.LookupProfile(targetName)
	targetQoS := twig.CalibrateQoSTarget(targetProf, cfg, 60, 2)
	load := 0.5 * targetProf.MaxLoadRPS

	for _, mode := range []string{"scratch", "transfer"} {
		srv := twig.NewServer(cfg, []twig.ServiceSpec{{Profile: targetProf, QoSTargetMs: targetQoS, Seed: 3}})
		var mgr *twig.Manager
		if mode == "transfer" {
			// A checkpoint restores only into a manager with matching
			// configuration, so rebuild the donor's manager, restore, then
			// swap the new service in — the Sec. IV node-operator workflow.
			mgr = newQuickManager(srv, donorName, donorTarget, donorProf.MaxLoadRPS)
			if err := mgr.LoadCheckpoint(bytes.NewReader(ckpt.Bytes())); err != nil {
				log.Fatal(err)
			}
			mgr.SetService(0, twig.ServiceConfig{Name: targetName, QoSTargetMs: targetQoS, MaxLoadRPS: targetProf.MaxLoadRPS})
			// Re-initialise the output heads and resume ε mid-schedule.
			// Unlike bare-weight seeding, the restored replay buffer still
			// holds donor experience and the optimiser its moments, so the
			// first ~minibatch of updates trains on stale transitions —
			// expect QoS during the warm-up window to differ slightly from
			// a weights-only transfer before the advantage shows.
			mgr.Transfer(2000)
		} else {
			mgr = newQuickManager(srv, targetName, targetQoS, targetProf.MaxLoadRPS)
		}
		fmt.Printf("%s on %s:\n", mode, targetName)
		run(srv, mgr, load, 2400, func(t, met, total int) {
			fmt.Printf("  t=%4ds QoS so far %.0f%%\n", t, 100*float64(met)/float64(total))
		})
		fmt.Println()
	}
}

func newQuickManager(srv *twig.Server, name string, qosMs, maxRPS float64) *twig.Manager {
	svc := twig.ServiceConfig{Name: name, QoSTargetMs: qosMs, MaxLoadRPS: maxRPS}
	return twig.NewManager(
		twig.QuickConfig([]twig.ServiceConfig{svc}, len(srv.ManagedCores()), srv.MaxPowerW()),
		srv.ManagedCores())
}

func run(srv *twig.Server, mgr *twig.Manager, loadRPS float64, seconds int, progress func(t, met, total int)) {
	loop := twig.NewLoop(srv, mgr)
	loop.Loads()[0] = loadRPS
	met, total := 0, 0
	for t := 0; t < seconds; t++ {
		res, _, err := loop.Step()
		if err != nil {
			log.Fatal(err)
		}
		total++
		if res.Services[0].P99Ms <= res.Services[0].QoSTargetMs {
			met++
		}
		if progress != nil && (t+1)%600 == 0 {
			progress(t+1, met, total)
			met, total = 0, 0
		}
	}
}
