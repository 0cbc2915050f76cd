//go:build !amd64

package nn

func adamKernel(rows, cols, stride int, grad, m, v, pack *float64, k *adamConsts, zero bool) (finite bool) {
	panic("nn: asm kernel on non-amd64")
}
