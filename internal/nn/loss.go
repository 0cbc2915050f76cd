package nn

import "github.com/twig-sched/twig/internal/mat"

// MSE returns the mean-squared-error ½·mean((pred−target)²) together with
// the gradient of that loss with respect to pred. The ½ factor gives the
// clean gradient (pred−target)/N.
func MSE(pred, target *mat.Matrix) (loss float64, grad *mat.Matrix) {
	if pred.Rows != target.Rows || pred.Cols != target.Cols {
		panic("nn: MSE shape mismatch")
	}
	n := float64(len(pred.Data))
	grad = mat.New(pred.Rows, pred.Cols)
	for i := range pred.Data {
		d := pred.Data[i] - target.Data[i]
		loss += 0.5 * d * d
		grad.Data[i] = d / n
	}
	return loss / n, grad
}
