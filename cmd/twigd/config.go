package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"github.com/twig-sched/twig/internal/experiments"
	"github.com/twig-sched/twig/internal/scenario"
	"github.com/twig-sched/twig/internal/sim/faults"
	"github.com/twig-sched/twig/internal/sim/service"
)

// Named validation errors, so tests (and callers) can assert the
// failure mode instead of matching message text.
var (
	errLoadMismatch   = errors.New("twigd: need one load fraction per service")
	errBadLoad        = errors.New("twigd: bad load fraction")
	errUnknownPattern = errors.New("twigd: unknown load pattern (want fixed, stepwise or diurnal)")
	errUnknownService = errors.New("twigd: unknown service")
	errUnknownScale   = errors.New("twigd: unknown scale (want quick or paper)")
	errBadNodes       = errors.New("twigd: -nodes must be at least 1")
	errScenarioFlags  = errors.New("twigd: -scenario is mutually exclusive with -trace (a scenario brings its own generated traces)")
	errFleetFlags     = errors.New("twigd: fleet mode (-nodes > 1) does not read single-node flags (whole-node faults are -node-faults)")
)

// singleNodeFlags are the flags only the single-node daemon reads.
var singleNodeFlags = []string{"faults", "guard", "trace", "pattern", "csv", "save", "load"}

// runConfig is the parsed, validated command line.
type runConfig struct {
	names    []string
	loads    []float64
	pattern  string
	trace    string
	scenario string
	csv      string
	httpAddr string
	save     string
	load     string
	seconds  int
	seed     int64
	scale    experiments.Scale
	logEvery int
	faults   faults.Scenario
	guard    bool

	ckptDir   string
	ckptEvery int
	ckptKeep  int

	// Fleet mode (-nodes > 1): the multi-node cluster coordinator
	// replaces the single-node daemon engine.
	nodes      int
	nodeCap    int
	nodeFaults faults.ClusterScenario
}

// parseConfig parses and validates twigd's flags from args (without the
// program name). Errors are named where a test or caller might branch
// on them; flag.ErrHelp passes through for -h. Usage output goes to
// errOut.
func parseConfig(args []string, errOut io.Writer) (runConfig, error) {
	fs := flag.NewFlagSet("twigd", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		servicesFlag = fs.String("services", "masstree", "comma-separated service names")
		loadsFlag    = fs.String("loads", "0.5", "comma-separated load fractions of each service's max")
		pattern      = fs.String("pattern", "fixed", "load pattern: fixed, stepwise or diurnal")
		traceFlag    = fs.String("trace", "", "CSV load trace for the first service (overrides -pattern)")
		scenFlag     = fs.String("scenario", "", "named scenario preset ("+strings.Join(scenario.Names(), ", ")+"): platform, service mix and generated traces replace -services/-loads/-pattern")
		csvFlag      = fs.String("csv", "", "write a per-interval CSV record of the run to this file")
		httpFlag     = fs.String("http", "", "serve the admission API, /status and /metrics on this address while running")
		saveFlag     = fs.String("save", "", "write a manager checkpoint (networks, Adam moments, replay, ε position) to this file at exit")
		loadFlag     = fs.String("load", "", "seed the manager from a checkpoint written by -save or -checkpoint-dir")
		seconds      = fs.Int("seconds", 3500, "simulated seconds to run")
		seed         = fs.Int64("seed", 1, "random seed")
		scale        = fs.String("scale", "quick", "learning profile: quick or paper")
		logEvery     = fs.Int("log-every", 100, "print a status line every N simulated seconds")
		faultsFlag   = fs.String("faults", "none", "fault scenario: "+strings.Join(faults.Names(), ", "))
		guardFlag    = fs.Bool("guard", false, "wrap the manager in the resilient guard")
		ckptDir      = fs.String("checkpoint-dir", "", "directory for periodic crash-consistent checkpoints; on start the latest valid one is restored and the run resumes bit-identically")
		ckptEvery    = fs.Int("checkpoint-every", 60, "write a checkpoint every N simulated seconds (with -checkpoint-dir)")
		ckptKeep     = fs.Int("checkpoint-keep", 3, "checkpoints to retain on disk (with -checkpoint-dir)")
		nodesFlag    = fs.Int("nodes", 1, "fleet size: >1 runs the multi-node cluster coordinator instead of the single-node daemon")
		nodeCap      = fs.Int("node-capacity", 4, "replicas one fleet node hosts at once (with -nodes)")
		nodeFaults   = fs.String("node-faults", "none", "whole-node fault scenario in fleet mode: "+strings.Join(faults.ClusterNames(), ", "))
	)
	if err := fs.Parse(args); err != nil {
		return runConfig{}, err
	}

	cfg := runConfig{
		pattern:   *pattern,
		trace:     *traceFlag,
		scenario:  *scenFlag,
		csv:       *csvFlag,
		httpAddr:  *httpFlag,
		save:      *saveFlag,
		load:      *loadFlag,
		seconds:   *seconds,
		seed:      *seed,
		logEvery:  *logEvery,
		guard:     *guardFlag,
		ckptDir:   *ckptDir,
		ckptEvery: *ckptEvery,
		ckptKeep:  *ckptKeep,
		nodes:     *nodesFlag,
		nodeCap:   *nodeCap,
	}
	if cfg.nodes < 1 {
		return runConfig{}, fmt.Errorf("%w: %d", errBadNodes, cfg.nodes)
	}
	if cfg.nodes > 1 {
		var set []string
		fs.Visit(func(f *flag.Flag) {
			if slices.Contains(singleNodeFlags, f.Name) {
				set = append(set, "-"+f.Name)
			}
		})
		if len(set) > 0 {
			return runConfig{}, fmt.Errorf("%w: %s", errFleetFlags, strings.Join(set, " "))
		}
	}
	if cfg.scenario != "" {
		if cfg.trace != "" {
			return runConfig{}, errScenarioFlags
		}
		// scenario.Named's error lists the presets for the operator.
		if _, err := scenario.Named(cfg.scenario); err != nil {
			return runConfig{}, err
		}
	}

	for _, name := range strings.Split(*servicesFlag, ",") {
		name = strings.TrimSpace(name)
		if _, err := service.Lookup(name); err != nil {
			return runConfig{}, fmt.Errorf("%w: %q", errUnknownService, name)
		}
		cfg.names = append(cfg.names, name)
	}

	loadStrs := strings.Split(*loadsFlag, ",")
	// A single fraction broadcasts across every service.
	if len(loadStrs) == 1 && len(cfg.names) > 1 {
		for len(loadStrs) < len(cfg.names) {
			loadStrs = append(loadStrs, loadStrs[0])
		}
	}
	if len(loadStrs) != len(cfg.names) {
		return runConfig{}, fmt.Errorf("%w: %d services, %d loads", errLoadMismatch, len(cfg.names), len(loadStrs))
	}
	for _, ls := range loadStrs {
		frac, err := strconv.ParseFloat(strings.TrimSpace(ls), 64)
		if err != nil || frac <= 0 {
			return runConfig{}, fmt.Errorf("%w: %q", errBadLoad, ls)
		}
		cfg.loads = append(cfg.loads, frac)
	}

	switch *pattern {
	case "fixed", "stepwise", "diurnal":
	default:
		return runConfig{}, fmt.Errorf("%w: %q", errUnknownPattern, *pattern)
	}

	switch *scale {
	case "quick":
		cfg.scale = experiments.QuickScale()
	case "paper":
		cfg.scale = experiments.PaperScale()
	default:
		return runConfig{}, fmt.Errorf("%w: %q", errUnknownScale, *scale)
	}

	scenario, err := faults.Named(*faultsFlag)
	if err != nil {
		return runConfig{}, err
	}
	cfg.faults = scenario

	nodeScenario, err := faults.NamedCluster(*nodeFaults)
	if err != nil {
		return runConfig{}, err
	}
	cfg.nodeFaults = nodeScenario
	return cfg, nil
}
