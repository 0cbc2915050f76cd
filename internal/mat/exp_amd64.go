//go:build amd64

package mat

// cpuHasFMA reports the CPUID FMA bit; the OS-enabled YMM state the
// instructions also need is what cpuHasAVX2 checked.
func cpuHasFMA() bool

//go:noescape
func expKernel(xs []float64) int
