package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/twig-sched/twig/internal/scenario"
	"github.com/twig-sched/twig/internal/sim/faults"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// TestFiguresShortGolden pins the rendering of every figure runner at
// ShortScale, seed 1, against a committed golden file: Fig. 5 on one
// service, Figs. 6–12, Fig. 13 on one pair, both extensions, two
// ablations, and one fault-matrix and one scenario cell per manager.
// Simulator, learner and baselines are all seeded, so any drift is a
// behaviour change. Regenerate with:
//
//	go test ./internal/experiments/ -run TestFiguresShortGolden -update
func TestFiguresShortGolden(t *testing.T) {
	sc := ShortScale()
	const seed = 1
	parts := []string{
		Fig5([]string{"masstree"}, sc, seed).String(),
		Fig6(sc, seed).String(),
		Fig7(sc, seed).String(),
		Fig8(sc, seed).String(),
		Fig9(sc, seed).String(),
		Fig10(sc, seed).String(),
		Fig11(sc, seed).String(),
		Fig12(sc, seed).String(),
		Fig13([][2]string{{"masstree", "xapian"}}, sc, seed).String(),
		ExtensionCAT(sc, seed).String(),
		BatchColoc(sc, seed).String(),
		AblationReplay(sc, seed).String(),
		AblationMultiAgentValue(sc, seed).String(),
	}

	fs := faults.MustNamed("hostile")
	adaptScenario(&fs, sc.LearnS+sc.SummaryS)
	ff := FigFaultResult{Scenarios: []string{fs.Name}, Services: []string{"masstree", "xapian"}}
	ws, err := scenario.MustNamed("cloud-edge").Worlds(seed)
	if err != nil {
		t.Fatal(err)
	}
	fscen := FigScenResult{Scale: sc.Name, Scenarios: []string{"cloud-edge"}}
	for _, mgr := range []string{"twig-c", "parties", "static"} {
		ff.Cells = append(ff.Cells, FaultCellRun(sc, seed, fs, mgr, true, ff.Services))
		fscen.Cells = append(fscen.Cells, ScenCellRun(sc, seed, ws[0], mgr))
	}
	parts = append(parts, ff.String(), fscen.String())
	got := strings.Join(parts, "\n")

	golden := filepath.Join("testdata", "figures_short.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("figure renderings drifted from %s (regenerate with -update if intended):\n%s",
			golden, diffLines(string(want), got))
	}
}

// diffLines lists the lines that differ between want and got.
func diffLines(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			b.WriteString("- " + w + "\n+ " + g + "\n")
		}
	}
	return b.String()
}
