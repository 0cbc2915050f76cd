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
	"github.com/twig-sched/twig/internal/sim/loadgen"
	"github.com/twig-sched/twig/internal/sim/service"
)

// Named errors of twigd's own flag rules, so tests can assert the failure
// mode; a request value's rule, and its error, is its owner's.
var (
	errLoadMismatch    = errors.New("need one load fraction per service")
	errBadNodes        = errors.New("-nodes must be at least 1")
	errBadNodeCapacity = errors.New("-node-capacity must be at least 1")
	errBadLogEvery     = errors.New("-log-every must be at least 1")
	errBadCkptEvery    = errors.New("-checkpoint-every must be at least 1")
	errBadCkptKeep     = errors.New("-checkpoint-keep must be at least 1")
	errScenarioFlags   = errors.New("-scenario is mutually exclusive with -trace (a scenario brings its own generated traces)")
	errFleetFlags      = errors.New("fleet mode (-nodes > 1) does not read single-node flags (whole-node faults are -node-faults)")
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
// program name), before anything is calibrated; flag.ErrHelp passes
// through for -h. Usage output goes to errOut.
func parseConfig(args []string, errOut io.Writer) (runConfig, error) {
	fs := flag.NewFlagSet("twigd", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var cfg runConfig
	servicesFlag := fs.String("services", "masstree", "comma-separated service names")
	loadsFlag := fs.String("loads", "0.5", "comma-separated load fractions of each service's max")
	fs.StringVar(&cfg.pattern, "pattern", "fixed", "load pattern: "+loadgen.PatternNames)
	fs.StringVar(&cfg.trace, "trace", "", "CSV load trace for the first service (overrides -pattern)")
	fs.StringVar(&cfg.scenario, "scenario", "", "named scenario preset ("+strings.Join(scenario.Names(), ", ")+"): platform, service mix and generated traces replace -services/-loads/-pattern")
	fs.StringVar(&cfg.csv, "csv", "", "write a per-interval CSV record of the run to this file")
	fs.StringVar(&cfg.httpAddr, "http", "", "serve the admission API, /status and /metrics on this address while running")
	fs.StringVar(&cfg.save, "save", "", "write a manager checkpoint (networks, Adam moments, replay, ε position) to this file at exit")
	fs.StringVar(&cfg.load, "load", "", "seed the manager from a checkpoint written by -save or -checkpoint-dir")
	fs.IntVar(&cfg.seconds, "seconds", 3500, "simulated seconds to run")
	fs.Int64Var(&cfg.seed, "seed", 1, "random seed")
	scale := fs.String("scale", "quick", "learning profile: quick, paper or short")
	fs.IntVar(&cfg.logEvery, "log-every", 100, "print a status line every N simulated seconds")
	faultsFlag := fs.String("faults", "none", "fault scenario: "+strings.Join(faults.Names(), ", "))
	fs.BoolVar(&cfg.guard, "guard", false, "wrap the manager in the resilient guard")
	fs.StringVar(&cfg.ckptDir, "checkpoint-dir", "", "directory for periodic crash-consistent checkpoints; on start the latest valid one is restored and the run resumes bit-identically")
	fs.IntVar(&cfg.ckptEvery, "checkpoint-every", 60, "write a checkpoint every N simulated seconds (with -checkpoint-dir)")
	fs.IntVar(&cfg.ckptKeep, "checkpoint-keep", 3, "checkpoints to retain on disk (with -checkpoint-dir)")
	fs.IntVar(&cfg.nodes, "nodes", 1, "fleet size: >1 runs the multi-node cluster coordinator instead of the single-node daemon")
	fs.IntVar(&cfg.nodeCap, "node-capacity", 4, "replicas one fleet node hosts at once (with -nodes)")
	nodeFaults := fs.String("node-faults", "none", "whole-node fault scenario in fleet mode: "+strings.Join(faults.ClusterNames(), ", "))
	if err := fs.Parse(args); err != nil {
		return runConfig{}, err
	}

	for _, c := range []struct {
		v   int
		err error
	}{
		{cfg.nodes, errBadNodes}, {cfg.nodeCap, errBadNodeCapacity}, {cfg.logEvery, errBadLogEvery},
		{cfg.ckptEvery, errBadCkptEvery}, {cfg.ckptKeep, errBadCkptKeep},
	} {
		if c.v < 1 {
			return runConfig{}, fmt.Errorf("%w: got %d", c.err, c.v)
		}
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
			return runConfig{}, err
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
		if err != nil {
			return runConfig{}, fmt.Errorf("%w: %q is not a number", service.ErrBadLoad, ls)
		}
		if err := service.CheckLoad(frac); err != nil {
			return runConfig{}, err
		}
		cfg.loads = append(cfg.loads, frac)
	}

	_, err := loadgen.Named(cfg.pattern, 1, 1) // loadgen keeps the names; any valid load will do
	if err == nil {
		cfg.scale, err = experiments.NamedScale(*scale)
	}
	if err == nil {
		cfg.faults, err = faults.Named(*faultsFlag)
	}
	if err == nil {
		cfg.nodeFaults, err = faults.NamedCluster(*nodeFaults)
	}
	return cfg, err
}
