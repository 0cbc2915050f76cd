//go:build amd64

package nn

//go:noescape
func adamStepAVX2(n int, value, grad, m, v *float64, k *adamConsts, zero bool)
