package par

import (
	"runtime"
	"testing"
)

func TestForCoversAllIndices(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 3, 16} {
		runtime.GOMAXPROCS(procs)
		const n = 37
		seen := make([]int, n)
		For(n, func(i int) { seen[i]++ })
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("GOMAXPROCS %d: index %d visited %d times", procs, i, c)
			}
		}
		For(0, func(int) { t.Fatal("fn called for n=0") })
	}
}

// TestForRaisesPanicInCaller checks a worker's panic reaches the caller
// after the other indices ran, as the serial loop's would.
func TestForRaisesPanicInCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n = 20
	seen := make([]bool, n)
	defer func() {
		if v := recover(); v != "boom" {
			t.Fatalf("recovered %v, want boom", v)
		}
		for i, ok := range seen {
			if !ok && i != 7 {
				t.Errorf("index %d never ran", i)
			}
		}
	}()
	For(n, func(i int) {
		if i == 7 {
			panic("boom")
		}
		seen[i] = true
	})
	t.Fatal("For returned after a panic")
}
