package mat

import "math"

// expFused says math.Exp runs archExp's FMA sequence in this process: on
// amd64 the runtime takes it under cpu.X86.HasAVX && HasFMA, which
// GODEBUG=cpu.fma=off or cpu.avx=off clear on a CPU that has both. −96
// is an input the fused and the unfused sequence round differently.
var expFused = math.Float64bits(math.Exp(-96)) == 0x3746a5bea046b42f

// Exp replaces every element of xs with math.Exp of it, bit for bit.
// Where math.Exp runs the runtime's FMA sequence and HaveFMA, whole
// vectors go through expKernel, which performs that sequence four lanes
// at a time; a vector holding a lane outside its range, the tail and
// every other host go through math.Exp.
func Exp(xs []float64) {
	i := 0
	if HaveFMA() && expFused {
		for n := len(xs) &^ 3; i < n; {
			i += expKernel(xs[i:n])
			for end := min(i+4, n); i < end; i++ {
				xs[i] = math.Exp(xs[i])
			}
		}
	}
	for ; i < len(xs); i++ {
		xs[i] = math.Exp(xs[i])
	}
}
