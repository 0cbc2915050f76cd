package mat

import "os"

// Opt-in fast-math mode. The default kernels round every multiply and
// add separately (the repo-wide bit-exactness contract: tiled, naive,
// serial and parallel paths agree bitwise, which the determinism and
// resume guarantees ride on). SetFastMath(true) swaps in fused
// multiply-add variants — VFMADD YMM twins of every kernel plus an
// 8×8 ZMM tile on AVX-512 — that keep the same ascending-k accumulation
// order but round each term once instead of twice. The fused tiles have
// no indexed form, so fast mode makes no column scan and multiplies
// through dead columns. Results then differ from the default path in the trailing ulps,
// so fast mode forfeits bit-identical resume and cross-machine
// reproducibility; checkpoint formats, the default path, and all
// observable control behaviour at matching weights are unchanged.
//
// zr is the fast-path register tile height (8 destination rows per
// AVX-512 kernel call).
const zr = 8

// fastMath is the process-wide opt-in. It is read racily on the GEMM
// hot path by design: set it once at startup (cmd flag plumbing),
// before compute goroutines exist.
var fastMath bool

func init() {
	// Force-disable switches for CI fallback matrices and debugging.
	// AVX2 is the base ISA for every assembly kernel, FMA for every
	// fast kernel (the ZMM tile fuses too), so the disables cascade.
	if os.Getenv("TWIG_DISABLE_AVX2") != "" {
		haveAVX2, haveFMA, haveAVX512 = false, false, false
	}
	if os.Getenv("TWIG_DISABLE_FMA") != "" {
		haveFMA, haveAVX512 = false, false
	}
	if os.Getenv("TWIG_DISABLE_AVX512") != "" {
		haveAVX512 = false
	}
}

// SetFastMath toggles fast-math kernel dispatch and returns the
// resulting KernelName. On CPUs without FMA (or with it force-disabled)
// the toggle records the request but dispatch stays on the default
// bit-exact kernels — callers can tell from the returned name.
func SetFastMath(on bool) string {
	fastMath = on
	return KernelName()
}

// FastMath reports whether fast-math kernels are both requested and
// available — i.e. whether results may differ from the bit-exact path.
func FastMath() bool {
	return fastMath && (haveFMA || haveAVX512)
}

// CPUFeatures reports the detected SIMD features with OS-enabled state,
// after TWIG_DISABLE_* overrides — the provenance string benchmark
// reports record next to KernelName.
func CPUFeatures() string {
	s := ""
	if haveAVX2 {
		s = "avx2"
	}
	if haveFMA {
		s += "+fma"
	}
	if haveAVX512 {
		s += "+avx512f"
	}
	if s == "" {
		return "none"
	}
	return s
}

// HaveAVX2 reports whether the AVX2 assembly kernels are in use — the
// CPU and OS support them and TWIG_DISABLE_AVX2 is unset. Packages with
// kernels of their own (nn's Adam step) follow the same switch.
func HaveAVX2() bool { return haveAVX2 }

// fastFMA gates the YMM FMA kernel twins at dispatch sites.
func fastFMA() bool { return fastMath && haveFMA }

// fastZMM gates the 8×8 AVX-512 tile at dispatch sites.
func fastZMM() bool { return fastMath && haveAVX512 }
