package experiments

import (
	"reflect"
	"testing"
)

// TestParallelCellsByteIdentical verifies the concurrent experiment
// runner's core guarantee: fanning cells out over workers produces
// exactly the result of a serial sweep, because every cell owns its
// server, controller and RNG chain and writes to an index-fixed slot.
func TestParallelCellsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sc := tinyScale()
	old := Parallelism()
	defer SetParallelism(old)

	SetParallelism(1)
	serialFig5 := Fig5([]string{"masstree"}, sc, 7)
	serialAbl := AblationReplay(sc, 7)
	SetParallelism(4)
	parallelFig5 := Fig5([]string{"masstree"}, sc, 7)
	parallelAbl := AblationReplay(sc, 7)

	if !reflect.DeepEqual(serialFig5, parallelFig5) {
		t.Fatalf("Fig5 differs between serial and parallel runs:\nserial:   %+v\nparallel: %+v",
			serialFig5, parallelFig5)
	}
	if !reflect.DeepEqual(serialAbl, parallelAbl) {
		t.Fatalf("AblationReplay differs between serial and parallel runs:\nserial:   %+v\nparallel: %+v",
			serialAbl, parallelAbl)
	}
}

func TestForEachCellCoversAllIndices(t *testing.T) {
	old := Parallelism()
	defer SetParallelism(old)
	for _, w := range []int{1, 3, 16} {
		SetParallelism(w)
		const n = 37
		seen := make([]int, n)
		forEachCell(n, func(i int) { seen[i]++ })
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("parallelism %d: index %d visited %d times", w, i, c)
			}
		}
	}
	forEachCell(0, func(int) { t.Fatal("fn called for n=0") })
}
