// Package tiertest lets a test outside package mat run under every GEMM
// kernel tier the host has. The tier is chosen once per process (mat's
// TWIG_DISABLE_* switches are read at start-up), so the other tiers run
// in children of the test binary.
package tiertest

import (
	"bytes"
	"os"
	"os/exec"
	"regexp"
	"testing"

	"github.com/twig-sched/twig/internal/mat"
)

// EachLower re-runs the calling top-level test in a child process under
// each switch that drops dispatch below the tier this process runs —
// TWIG_DISABLE_AVX512, then TWIG_DISABLE_AVX2 — and fails the test if a
// child does. The caller runs its body itself, so with this call the body
// has run on every tier. A process already under a switch (a child, or a
// leg of CI's kernel-fallback matrix) starts none.
func EachLower(t *testing.T) {
	t.Helper()
	switches := []string{"TWIG_DISABLE_AVX512", "TWIG_DISABLE_AVX2"}
	for _, sw := range switches {
		if os.Getenv(sw) != "" {
			return
		}
	}
	switch mat.KernelName() {
	case "avx2":
		switches = switches[1:]
	case "portable":
		return
	}
	for _, sw := range switches {
		cmd := exec.Command(os.Args[0], "-test.run=^"+regexp.QuoteMeta(t.Name())+"$", "-test.count=1", "-test.v")
		cmd.Env = append(os.Environ(), sw+"=1")
		out, err := cmd.CombinedOutput()
		if err != nil || !bytes.Contains(out, []byte("--- PASS: "+t.Name())) {
			t.Errorf("under %s=1: %v\n%s", sw, err, out)
		}
	}
}
