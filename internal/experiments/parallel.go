package experiments

import "sync/atomic"

// cellParallelism is the experiment-cell fan-out (par.For's worker
// count for cells). The default of 1 keeps every figure runner's cells
// strictly serial; cmd/twig-experiments raises it via the -parallel flag
// and the benchmarks via SetParallelism.
var cellParallelism int32 = 1

// SetParallelism sets how many experiment cells (independent
// server+controller runs) may execute concurrently. Values below 1 are
// treated as 1 (serial). Results are byte-identical regardless of the
// setting: every cell owns its server, controller and RNG chain, and is
// written to a result slot fixed by its cell index.
func SetParallelism(n int) {
	if n < 1 {
		n = 1
	}
	atomic.StoreInt32(&cellParallelism, int32(n))
}

// Parallelism returns the current experiment-cell fan-out.
func Parallelism() int { return int(atomic.LoadInt32(&cellParallelism)) }
