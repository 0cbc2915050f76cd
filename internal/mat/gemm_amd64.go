//go:build amd64

package mat

// The microkernels compute mr×nr (AVX2), zr×zw (AVX-512) or 1×nr
// destination tiles over the k depth with one accumulator register chain
// per vector of destination columns. Each term is a VMULPD followed by a
// VADDPD — two individually rounded operations, never a fused
// multiply-add — so every lane matches the scalar `acc += av*bv` of the
// naive kernels bit for bit, in the same ascending-k order. The tiles
// test nothing per element: kern4x8n walks the whole depth, kern4x8ni the
// live columns a scan of the a operand listed (live.go), and kern8x16
// either, by its argument block — it also walks every panel of its tile,
// two a pass, and writes back from the registers (tile16, tiled.go). The one-row
// kernRowPanelsS of batch-1 selection steps over a-operand zeros (±0 by
// integer bit test, NaN never skipped).

// haveAVX2 gates the assembly microkernels; the portable kernRowGo path
// (bitwise identical) is used when false.
var haveAVX2 = cpuHasAVX2()

// haveAVX512 selects the 8×16 ZMM tiles for every full tile of eight
// rows; the YMM tiles take what is left over and everything when false.
var haveAVX512 = haveAVX2 && cpuHasAVX512()

// cpuHasAVX2 reports AVX2 support with OS-enabled YMM state.
func cpuHasAVX2() bool

// cpuHasAVX512 reports AVX512F support with OS-enabled ZMM/opmask state.
func cpuHasAVX512() bool

//go:noescape
func kern4x8n(k, astep int, a0, a1, a2, a3, panel *float64, acc *[mr * nr]float64)

//go:noescape
func kern4x8ni(n int, idx *int32, a0, a1, a2, a3, panel *float64, acc *[mr * nr]float64)

//go:noescape
func kern8x16(t *tile16)

//go:noescape
func orRows4(k int, x0, x1, x2, x3 *float64, or *uint64)

//go:noescape
func kernRowPanelsS(k, panels int, a0, panel, acc *float64)

//go:noescape
func sweepKernel(s *sweepArgs)

//go:noescape
func gatherPanel(k int, base *float64, src *[nr]int, lanes int, dst *float64)

//go:noescape
func transposePanel(src *[nr]int, base *float64, stride, full int, idx *int32, n int, out *float64)
