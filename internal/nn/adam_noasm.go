//go:build !amd64

package nn

func adamStepAVX2(n int, value, grad, m, v *float64, k *adamConsts, zero bool) {
	panic("nn: asm kernel on non-amd64")
}
