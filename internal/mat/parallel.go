package mat

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The GEMM kernels (Mul, MulTransA, MulTransB) fan out across goroutines
// when the product is large enough to amortise the scheduling overhead.
// Work is partitioned by destination row, so no two workers ever touch
// the same output element and every element accumulates its terms in the
// same order as the serial kernel — parallel results are bit-identical
// to serial ones, not merely close.

// ParallelFlopThreshold is the minimum number of multiply-adds below
// which a product always runs on the calling goroutine: 2²⁰, about
// 100 µs of kernel time, so that each of two workers gets several times
// what starting and joining it costs. Batch-1 inference and every
// quick-scale product stay serial; the paper-scale batch-64 products
// that still have a million live multiply-adds fan out. It stood at 2¹⁶
// through PR 14, where the fan-out of ~10⁵-multiply-add products cost
// the daemon and fleet workloads 10–20 % of their wall time
// (DESIGN.md §5m).
const ParallelFlopThreshold = 1 << 20

// parallelThreshold is what the gate reads; tests lower it so shapes a
// fuzzer can afford still cross it.
var parallelThreshold = ParallelFlopThreshold

// parallelism is the worker fan-out; 1 disables parallel execution.
var parallelism int32 = int32(runtime.GOMAXPROCS(0))

// SetParallelism sets the maximum number of goroutines a single matrix
// product may use. Values below 1 are treated as 1 (serial). The default
// is GOMAXPROCS at package init.
func SetParallelism(n int) {
	if n < 1 {
		n = 1
	}
	atomic.StoreInt32(&parallelism, int32(n))
}

// Parallelism returns the current worker fan-out.
func Parallelism() int { return int(atomic.LoadInt32(&parallelism)) }

// useParallel reports whether a product with the given destination row
// count and multiply-add count should fan out. The tiled paths pass the
// multiply-adds they will execute — rows × live columns × n — not the
// nominal shape: a product that skips two thirds of its depth has a
// third of the work to share out. Callers must check this
// BEFORE constructing the chunk closure for parallelRows: building the
// closure unconditionally would heap-allocate it on every serial call,
// defeating the zero-allocation steady state.
func useParallel(rows, flops int) bool {
	return rows >= 2 && flops >= parallelThreshold && Parallelism() > 1
}

// parallelRows splits [0, rows) into contiguous chunks and runs fn on
// each chunk concurrently. Callers gate on useParallel first.
func parallelRows(rows int, fn func(r0, r1 int)) {
	w := Parallelism()
	if w > rows {
		w = rows
	}
	chunk := (rows + w - 1) / w
	var wg sync.WaitGroup
	for r0 := 0; r0 < rows; r0 += chunk {
		r1 := r0 + chunk
		if r1 > rows {
			r1 = rows
		}
		wg.Add(1)
		go func(r0, r1 int) {
			defer wg.Done()
			fn(r0, r1)
		}(r0, r1)
	}
	wg.Wait()
}

// mulRange computes rows [r0, r1) of dst = a·b.
func mulRange(dst, a, b *Matrix, r0, r1 int) {
	for i := r0; i < r1; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for j := range drow {
			drow[j] = 0
		}
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// mulTransARange computes rows [r0, r1) of dst = aᵀ·b, where dst row i
// is column i of a. For each destination element the k-terms accumulate
// in ascending order — the same order as the serial kernel's k-outer
// loop — so the result is bit-identical.
func mulTransARange(dst, a, b *Matrix, r0, r1 int) {
	for i := r0; i < r1; i++ {
		drow := dst.Row(i)
		for j := range drow {
			drow[j] = 0
		}
		for k := 0; k < a.Rows; k++ {
			av := a.Data[k*a.Cols+i]
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// mulTransAAccRange computes rows [r0, r1) of dst += aᵀ·b: each
// element's k-terms accumulate into a register in ascending order (zero
// a-operands skipped, like mulTransARange) and the finished sum is added
// to dst with one rounding — the streaming twin of the tiled
// accumulate path, bit-identical to it.
func mulTransAAccRange(dst, a, b *Matrix, r0, r1 int) {
	for i := r0; i < r1; i++ {
		drow := dst.Row(i)
		for j := range drow {
			var s float64
			for k := 0; k < a.Rows; k++ {
				av := a.Data[k*a.Cols+i]
				if av == 0 {
					continue
				}
				s += av * b.Data[k*b.Cols+j]
			}
			drow[j] += s
		}
	}
}

// mulTransBRange computes rows [r0, r1) of dst = a·bᵀ.
func mulTransBRange(dst, a, b *Matrix, r0, r1 int) {
	for i := r0; i < r1; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for j := 0; j < b.Rows; j++ {
			drow[j] = Dot(arow, b.Row(j))
		}
	}
}
