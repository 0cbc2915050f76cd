//go:build amd64

package nn

//go:noescape
func adamKernel(rows, cols int, value, grad, m, v, pack *float64, k *adamConsts, zero bool)
