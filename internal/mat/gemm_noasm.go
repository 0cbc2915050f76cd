//go:build !amd64

package mat

// Non-amd64 builds use the portable kernRowGo microkernel exclusively;
// it is bitwise identical to the assembly tiers (see gemm_amd64.go).
var (
	haveAVX2   = false
	haveAVX512 = false
)

func kern4x8n(k, astep int, a0, a1, a2, a3, panel *float64, acc *[mr * nr]float64) {
	panic("mat: asm kernel on non-amd64")
}

func kern4x8ni(n int, idx *int32, a0, a1, a2, a3, panel *float64, acc *[mr * nr]float64) {
	panic("mat: asm kernel on non-amd64")
}

func kern8x16(t *tile16) { panic("mat: asm kernel on non-amd64") }

func orRows4(k int, x0, x1, x2, x3 *float64, or *uint64) {
	panic("mat: asm kernel on non-amd64")
}

func kernRowPanelsS(k, panels int, a0, panel, acc *float64) {
	panic("mat: asm kernel on non-amd64")
}

func cpuHasFMA() bool { return false }

func expKernel(xs []float64) int { panic("mat: asm kernel on non-amd64") }

func sweepKernel(s *sweepArgs) { panic("mat: asm kernel on non-amd64") }

func gatherPanel(k int, base *float64, src *[nr]int, lanes int, dst *float64) {
	panic("mat: asm kernel on non-amd64")
}

func transposePanel(src *[nr]int, base *float64, stride, full int, idx *int32, n int, out *float64) {
	panic("mat: asm kernel on non-amd64")
}
