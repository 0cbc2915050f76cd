//go:build !amd64

package nn

func adamKernel(rows, cols int, value, grad, m, v, pack *float64, k *adamConsts, zero bool) {
	panic("nn: asm kernel on non-amd64")
}
