//go:build amd64

package nn

// cpuHasFMA reports the CPUID FMA bit; the OS-enabled YMM state the
// instructions also need is what mat.HaveAVX2 already checked.
func cpuHasFMA() bool

//go:noescape
func adamKernel(rows, cols int, value, grad, m, v, pack *float64, k *adamConsts, zero bool)
