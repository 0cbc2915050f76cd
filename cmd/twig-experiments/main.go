// Command twig-experiments regenerates any table or figure of the
// paper's evaluation on the simulated platform.
//
// Usage:
//
//	twig-experiments -experiment fig5 [-scale quick|paper|short] [-seed 1]
//	twig-experiments -experiment figscen -scale short
//	twig-experiments -experiment all
//
// Independent experiment cells fan out over GOMAXPROCS workers; results
// are byte-identical at any width (GOMAXPROCS=1 runs them one by one).
// -scale short is a smoke-test scale (tiny networks, 200-interval runs)
// so CI can rerun an experiment and diff the output in seconds.
// -h lists the experiment ids; all runs every one in that order.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/twig-sched/twig/internal/experiments"
	"github.com/twig-sched/twig/internal/sim/service"
)

// experimentList names every experiment once, in the order all runs them.
var experimentList = []struct {
	id  string
	run func(sc experiments.Scale, seed int64)
}{
	{"fig1", func(sc experiments.Scale, seed int64) {
		samples := 4000
		if sc.Name == "paper" {
			samples = 30_000
		}
		fmt.Println(experiments.Fig1("memcached", samples, seed))
		fmt.Println(experiments.Fig1("web-search", samples, seed+1))
	}},
	{"table1", func(sc experiments.Scale, seed int64) {
		secs := 40
		if sc.Name == "paper" {
			secs = 1000
		}
		fmt.Println(experiments.Table1(service.TailbenchNames(), secs, seed))
	}},
	{"fig4", func(_ experiments.Scale, seed int64) {
		for _, svc := range []string{"xapian", "masstree"} {
			fmt.Println(experiments.Fig4(svc, 12, seed))
		}
	}},
	{"table2", func(_ experiments.Scale, seed int64) { fmt.Println(experiments.Table2(60, seed)) }},
	{"table3", func(experiments.Scale, int64) { fmt.Println(experiments.Table3(20)) }},
	{"fig5", func(sc experiments.Scale, seed int64) {
		fmt.Println(experiments.Fig5(service.TailbenchNames(), sc, seed))
	}},
	{"fig6", func(sc experiments.Scale, seed int64) { fmt.Println(experiments.Fig6(sc, seed)) }},
	{"fig7", func(sc experiments.Scale, seed int64) { fmt.Println(experiments.Fig7(sc, seed)) }},
	{"figmem", func(experiments.Scale, int64) { fmt.Println(experiments.FigMem(3, 30, 25)) }},
	{"fig8", func(sc experiments.Scale, seed int64) { fmt.Println(experiments.Fig8(sc, seed)) }},
	{"fig9", func(sc experiments.Scale, seed int64) { fmt.Println(experiments.Fig9(sc, seed)) }},
	{"fig10", func(sc experiments.Scale, seed int64) { fmt.Println(experiments.Fig10(sc, seed)) }},
	{"fig11", func(sc experiments.Scale, seed int64) { fmt.Println(experiments.Fig11(sc, seed)) }},
	{"fig12", func(sc experiments.Scale, seed int64) { fmt.Println(experiments.Fig12(sc, seed)) }},
	{"fig13", func(sc experiments.Scale, seed int64) {
		fmt.Println(experiments.Fig13(experiments.ServicePairs(), sc, seed))
	}},
	{"figfault", func(sc experiments.Scale, seed int64) { fmt.Println(experiments.FigFault(sc, seed)) }},
	{"figchaos", func(sc experiments.Scale, seed int64) { fmt.Println(experiments.FigChaos(sc, seed)) }},
	{"figscen", func(sc experiments.Scale, seed int64) { fmt.Println(experiments.FigScen(sc, seed)) }},
	{"extension-cat", func(sc experiments.Scale, seed int64) { fmt.Println(experiments.ExtensionCAT(sc, seed)) }},
	{"extension-batch", func(sc experiments.Scale, seed int64) { fmt.Println(experiments.BatchColoc(sc, seed)) }},
	{"ablations", func(sc experiments.Scale, seed int64) {
		fmt.Println(experiments.AblationReplay(sc, seed))
		fmt.Println(experiments.AblationEta(sc, seed))
		fmt.Println(experiments.AblationReward(sc, seed))
		fmt.Println(experiments.AblationTargetMode(sc, seed))
		fmt.Println(experiments.AblationMultiAgentValue(sc, seed))
	}},
}

func main() {
	ids := make([]string, len(experimentList))
	for i, e := range experimentList {
		ids[i] = e.id
	}
	var (
		exp   = flag.String("experiment", "all", "experiment id: all, or one of "+strings.Join(ids, ", "))
		scale = flag.String("scale", "quick", "experiment scale: quick, paper or short (smoke test: tiny networks, 200-interval runs)")
		seed  = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()

	sc, err := experiments.NamedScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	for _, e := range experimentList {
		switch *exp {
		case "all":
			t0 := time.Now()
			fmt.Printf("=== %s ===\n", e.id)
			e.run(sc, *seed)
			fmt.Printf("(%s in %.1fs)\n\n", e.id, time.Since(t0).Seconds())
		case e.id:
			e.run(sc, *seed)
			return
		}
	}
	if *exp != "all" {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (want all or one of %s)\n", *exp, strings.Join(ids, ", "))
		os.Exit(2)
	}
}
