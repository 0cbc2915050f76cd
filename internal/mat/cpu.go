package mat

import "os"

// Kernel tiers. Every tiled product runs on the widest of three
// implementations the CPU has: the portable Go kernel, the AVX2 4×8
// tiles, or the AVX-512 8×8 tiles over them. All three perform the same
// individually rounded multiply and add per term in the same ascending
// k, so they agree bit for bit and the choice — made once, from CPUID —
// changes how fast a trajectory runs, never which one. haveAVX2 and
// haveAVX512 (gemm_amd64.go, gemm_noasm.go) hold the detected state;
// tests flip them to run every tier the host has.

func init() {
	// Force-disable switches for the CI fallback matrix and debugging:
	// each drops dispatch one tier. The AVX-512 tiles sit on the AVX2
	// leftovers, scan and row kernel, so disabling AVX2 disables both.
	if os.Getenv("TWIG_DISABLE_AVX512") != "" {
		haveAVX512 = false
	}
	if os.Getenv("TWIG_DISABLE_AVX2") != "" {
		haveAVX2, haveAVX512 = false, false
	}
}

// tier names the widest kernel implementation the CPU has and the SIMD
// features, with OS-enabled state, it was detected from — both after the
// TWIG_DISABLE_* overrides.
func tier() (kernel, features string) {
	switch {
	case !haveAVX2:
		return "portable", "none"
	case haveAVX512:
		return "avx512", "avx2+avx512f"
	default:
		return "avx2", "avx2"
	}
}

// KernelName names the tier dispatch runs: "avx512", "avx2" or
// "portable". Benchmark reports, /status and /metrics record it so
// numbers from different machines are comparable.
func KernelName() string {
	kernel, _ := tier()
	return kernel
}

// CPUFeatures is the provenance string reports record next to
// KernelName: "avx2+avx512f", "avx2" or "none".
func CPUFeatures() string {
	_, features := tier()
	return features
}

// haveFMA holds the CPUID FMA bit, read once (exp_amd64.s).
var haveFMA = cpuHasFMA()

// HaveFMA reports whether the FMA kernels — nn's Adam step and Exp's —
// are in use: the AVX2 kernels are (the CPU and OS support them and
// TWIG_DISABLE_AVX2 is unset), and the CPU has FMA3. TWIG_DISABLE_AVX2 is
// their only switch.
func HaveFMA() bool { return haveAVX2 && haveFMA }
