package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/twig-sched/twig/internal/experiments"
	"github.com/twig-sched/twig/internal/sim/loadgen"
	"github.com/twig-sched/twig/internal/sim/service"
)

func TestParseConfigTable(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr error // nil means the parse must succeed
		check   func(t *testing.T, cfg runConfig)
	}{
		{
			name: "defaults",
			args: nil,
			check: func(t *testing.T, cfg runConfig) {
				if len(cfg.names) != 1 || cfg.names[0] != "masstree" {
					t.Errorf("names = %v", cfg.names)
				}
				if len(cfg.loads) != 1 || cfg.loads[0] != 0.5 {
					t.Errorf("loads = %v", cfg.loads)
				}
				if cfg.scale.Name != "quick" {
					t.Errorf("scale = %s", cfg.scale.Name)
				}
				if !cfg.faults.IsZero() {
					t.Errorf("faults armed by default: %+v", cfg.faults)
				}
			},
		},
		{
			name: "multi service with broadcast load",
			args: []string{"-services", "masstree,xapian,moses", "-loads", "0.3"},
			check: func(t *testing.T, cfg runConfig) {
				if len(cfg.loads) != 3 || cfg.loads[2] != 0.3 {
					t.Errorf("broadcast loads = %v", cfg.loads)
				}
			},
		},
		{
			name: "explicit loads and paper scale",
			args: []string{"-services", "masstree,xapian", "-loads", "0.3,0.6", "-scale", "paper"},
			check: func(t *testing.T, cfg runConfig) {
				if cfg.loads[1] != 0.6 {
					t.Errorf("loads = %v", cfg.loads)
				}
				if cfg.scale.Name != "paper" {
					t.Errorf("scale = %s", cfg.scale.Name)
				}
			},
		},
		{
			name: "named fault scenario",
			args: []string{"-faults", "crash"},
			check: func(t *testing.T, cfg runConfig) {
				if cfg.faults.IsZero() || cfg.faults.Name != "crash" {
					t.Errorf("faults = %+v", cfg.faults)
				}
			},
		},
		{
			name:    "loads mismatch",
			args:    []string{"-services", "masstree,xapian", "-loads", "0.3,0.4,0.5"},
			wantErr: errLoadMismatch,
		},
		{
			name:    "unparsable load",
			args:    []string{"-loads", "lots"},
			wantErr: service.ErrBadLoad,
		},
		{
			name:    "non-positive load",
			args:    []string{"-loads", "-0.5"},
			wantErr: service.ErrBadLoad,
		},
		{name: "NaN load", args: []string{"-loads", "NaN"}, wantErr: service.ErrBadLoad},
		{name: "load past the bound", args: []string{"-services", "masstree,xapian", "-loads", "0.5,2"}, wantErr: service.ErrBadLoad},
		{
			name:    "unknown pattern",
			args:    []string{"-pattern", "sawtooth"},
			wantErr: loadgen.ErrUnknownPattern,
		},
		{name: "unknown pattern bogus", args: []string{"-pattern", "bogus"}, wantErr: loadgen.ErrUnknownPattern},
		{
			name:    "unknown service",
			args:    []string{"-services", "masstree,postgres"},
			wantErr: service.ErrUnknownProfile,
		},
		{name: "unknown service nope", args: []string{"-services", "nope"}, wantErr: service.ErrUnknownProfile},
		{
			name:    "unknown scale",
			args:    []string{"-scale", "huge"},
			wantErr: experiments.ErrUnknownScale,
		},
		{name: "unknown scale bogus", args: []string{"-scale", "bogus"}, wantErr: experiments.ErrUnknownScale},
		{
			name: "every pattern and the short scale",
			args: []string{"-pattern", "diurnal", "-scale", "short"},
			check: func(t *testing.T, cfg runConfig) {
				if cfg.pattern != "diurnal" || cfg.scale.Name != "short" {
					t.Errorf("pattern = %q scale = %q", cfg.pattern, cfg.scale.Name)
				}
			},
		},
		{name: "zero nodes", args: []string{"-nodes", "0"}, wantErr: errBadNodes},
		{name: "zero log cadence", args: []string{"-log-every", "0"}, wantErr: errBadLogEvery},
		{name: "zero log cadence in a fleet", args: []string{"-nodes", "2", "-log-every", "0"}, wantErr: errBadLogEvery},
		{name: "zero checkpoint cadence", args: []string{"-checkpoint-every", "0"}, wantErr: errBadCkptEvery},
		{name: "negative checkpoint retention", args: []string{"-checkpoint-keep", "-1"}, wantErr: errBadCkptKeep},
		{name: "zero node capacity", args: []string{"-nodes", "2", "-node-capacity", "0"}, wantErr: errBadNodeCapacity},
		{
			name: "scenario preset",
			args: []string{"-scenario", "agentic-burst"},
			check: func(t *testing.T, cfg runConfig) {
				if cfg.scenario != "agentic-burst" {
					t.Errorf("scenario = %q", cfg.scenario)
				}
			},
		},
		{
			name: "scenario with fleet flags",
			args: []string{"-scenario", "diurnal", "-nodes", "3", "-node-faults", "chaos"},
			check: func(t *testing.T, cfg runConfig) {
				if cfg.scenario != "diurnal" || cfg.nodes != 3 {
					t.Errorf("scenario = %q nodes = %d", cfg.scenario, cfg.nodes)
				}
			},
		},
		{
			name:    "scenario conflicts with trace",
			args:    []string{"-scenario", "cloud-edge", "-trace", "load.csv"},
			wantErr: errScenarioFlags,
		},
		{
			name: "fleet with its own flags",
			args: []string{"-nodes", "3", "-node-faults", "chaos", "-checkpoint-dir", "ckpt", "-http", ":0"},
			check: func(t *testing.T, cfg runConfig) {
				if cfg.nodes != 3 || cfg.nodeFaults.Name != "chaos" {
					t.Errorf("nodes = %d node faults = %q", cfg.nodes, cfg.nodeFaults.Name)
				}
			},
		},
		{
			name: "single-node flags at their defaults in a fleet",
			args: []string{"-nodes", "3"},
			check: func(t *testing.T, cfg runConfig) {
				if !cfg.faults.IsZero() || cfg.guard {
					t.Errorf("faults = %+v guard = %v", cfg.faults, cfg.guard)
				}
			},
		},
		{name: "fleet refuses -faults", args: []string{"-nodes", "3", "-faults", "hostile"}, wantErr: errFleetFlags},
		{name: "fleet refuses -faults none", args: []string{"-faults", "none", "-nodes", "2"}, wantErr: errFleetFlags},
		{name: "fleet refuses -guard", args: []string{"-nodes", "3", "-guard"}, wantErr: errFleetFlags},
		{name: "fleet refuses -trace", args: []string{"-nodes", "3", "-trace", "load.csv"}, wantErr: errFleetFlags},
		{name: "fleet refuses -pattern", args: []string{"-nodes", "3", "-pattern", "diurnal"}, wantErr: errFleetFlags},
		{name: "fleet refuses -csv", args: []string{"-nodes", "3", "-csv", "run.csv"}, wantErr: errFleetFlags},
		{name: "fleet refuses -save", args: []string{"-nodes", "3", "-save", "w.ckpt"}, wantErr: errFleetFlags},
		{name: "fleet refuses -load", args: []string{"-nodes", "3", "-load", "w.ckpt"}, wantErr: errFleetFlags},
		{
			name:    "help passes through",
			args:    []string{"-h"},
			wantErr: flag.ErrHelp,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := parseConfig(tc.args, io.Discard)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			tc.check(t, cfg)
		})
	}
}

// TestErrorPrintsOnce pins the line twigd prints for a refused command
// line: the error once, under one "twigd: " prefix, and exit status 2.
func TestErrorPrintsOnce(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-nodes", "3", "-faults", "crash"}, "twigd: fleet mode (-nodes > 1) does not read single-node flags (whole-node faults are -node-faults): -faults\n"},
		{[]string{"-pattern", "bogus"}, `twigd: loadgen: unknown load pattern (want fixed, stepwise or diurnal): "bogus"` + "\n"},
		{[]string{"-services", "nope"}, `twigd: service: unknown profile "nope"` + "\n"},
		{[]string{"-loads", "NaN"}, "twigd: service: load fraction must be a finite value in (0, 1.5]: got NaN\n"},
		{[]string{"-log-every", "0"}, "twigd: -log-every must be at least 1: got 0\n"},
	} {
		var out bytes.Buffer
		if code := twigd(tc.args, &out); code != 2 || out.String() != tc.want {
			t.Errorf("twigd %v: exit %d, printed %q; want exit 2, %q", tc.args, code, out.String(), tc.want)
		}
	}
}

func TestParseConfigUnknownFault(t *testing.T) {
	_, err := parseConfig([]string{"-faults", "gremlins"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "gremlins") {
		t.Fatalf("err = %v, want unknown-scenario error naming the input", err)
	}
}

// An unknown preset must fail the parse with an error that names the
// input and lists the available presets, so the operator can self-serve.
func TestParseConfigUnknownScenario(t *testing.T) {
	_, err := parseConfig([]string{"-scenario", "mars-base"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "mars-base") || !strings.Contains(err.Error(), "cloud-edge") {
		t.Fatalf("err = %v, want unknown-preset error naming the input and the presets", err)
	}
}

// TestLoadRefusesNonCheckpoint: -load reads the checkpoint container and
// nothing else; any other file is an error that says what it is not and
// how to bring an old weight file forward, before the manager is touched.
func TestLoadRefusesNonCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "weights.gob")
	if err := os.WriteFile(path, []byte("\x0c\xff\x81\x02\x01\x01gob junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := loadInto(nil, path)
	if err == nil {
		t.Fatal("a non-checkpoint file loaded")
	}
	for _, want := range []string{path, "not a twig checkpoint", "-save"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}
