package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
			wantErr: errBadLoad,
		},
		{
			name:    "non-positive load",
			args:    []string{"-loads", "-0.5"},
			wantErr: errBadLoad,
		},
		{
			name:    "unknown pattern",
			args:    []string{"-pattern", "sawtooth"},
			wantErr: errUnknownPattern,
		},
		{
			name:    "unknown service",
			args:    []string{"-services", "masstree,postgres"},
			wantErr: errUnknownService,
		},
		{
			name:    "unknown scale",
			args:    []string{"-scale", "huge"},
			wantErr: errUnknownScale,
		},
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
