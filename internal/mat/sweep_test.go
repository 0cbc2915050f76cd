package mat

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The one-sweep backward (SweepGrad) against the unfused sequence it
// replaces — the shift and the scale each a pass of its own, the ReLU mask,
// the column sums, Live.Scan, packB — bit for bit on every kernel tier, with
// ±0, subnormals and NaN in the gradient and in the mask's operand. Two
// NaN column sums may differ in payload (an add's operands meet in either
// order); every other bit is the sequence's.

// sweepFill is fuzzFill with NaNs and the values a ReLU mask turns on:
// ±0, subnormals, +Inf and NaN of either sign.
func sweepFill(data []float64, rng *rand.Rand) {
	fuzzFill(data, rng)
	for i := range data {
		switch rng.Intn(16) {
		case 0:
			data[i] = math.NaN()
		case 1:
			data[i] = math.Copysign(math.NaN(), -1)
		case 2:
			data[i] = math.Inf(1)
		case 3:
			data[i] = 5e-324 * float64(1+rng.Intn(4)) * float64(1-2*rng.Intn(2))
		}
	}
}

// unfusedSweep is the sequence SweepGrad replaces, pass by pass.
func unfusedSweep(g *Matrix, p Pending, mask *Matrix) (out *Matrix, sums []float64, live *Live, panels []float64) {
	out = g.Clone()
	for i := 0; i < out.Rows && p.Shift != nil; i++ {
		row := out.Row(i)
		for j := range row {
			row[j] = g.At(i, j) - p.Shift[i]
		}
	}
	if p.Scale != 0 {
		out.Scale(p.Scale)
	}
	if mask != nil {
		for i, v := range out.Data {
			b := math.Float64bits(v)
			if math.Float64bits(mask.Data[i])-1 >= 0x7FF0000000000000 {
				b = 0
			}
			out.Data[i] = math.Float64frombits(b)
		}
	}
	sums = make([]float64, out.Cols)
	naiveColSums(sums, out)
	live = &Live{}
	live.Scan(out)
	pm := packB(out, nil)
	panels = slices.Clone(pm.Data)
	PutScratch(pm)
	return out, sums, live, panels
}

// requireSweep holds one SweepGrad to the unfused sequence.
func requireSweep(t *testing.T, tag string, g *Matrix, p Pending, mask *Matrix) {
	t.Helper()
	want, wantSums, wantLive, wantPanels := unfusedSweep(g, p, mask)
	withKernels(t, func(kernel string) {
		tag := tag + "/" + kernel
		var dst *Matrix
		if mask != nil || !p.none() {
			dst = New(g.Rows, g.Cols)
			dst.Fill(math.NaN()) // every element must be written
		}
		sums := make([]float64, g.Cols)
		for i := range sums {
			sums[i] = 7
		}
		var live Live
		live.Scan(New(1, g.Cols)) // a stale scan the sweep replaces
		live.Reset()
		gp := PackedB{K: g.Rows, N: g.Cols, Data: make([]float64, len(wantPanels))}
		for i := range gp.Data {
			gp.Data[i] = math.Inf(-1)
		}
		SweepGrad(dst, g, p, mask, sums, &live, &gp)
		if dst != nil {
			requireBitsEqual(t, tag+"/dst", dst, want)
		}
		requireBitsEqualNaNsAlike(t, tag+"/sums", FromSlice(1, len(sums), sums), FromSlice(1, len(wantSums), wantSums))
		requireBitsEqual(t, tag+"/panels", FromSlice(1, len(gp.Data), gp.Data), FromSlice(1, len(wantPanels), wantPanels))
		n, ok := live.Count()
		wn, _ := wantLive.Count()
		if !ok || n != wn || !slices.Equal(live.list(), wantLive.list()) || !slices.Equal(live.deadList(), wantLive.deadList()) {
			t.Fatalf("%s: live set %v (%d, scanned %t), Scan finds %v (%d)", tag, live.list(), n, ok, wantLive.list(), wn)
		}
	})
}

// sweepCase draws a gradient, a mask operand and a shift for rows×cols,
// with whole columns of the gradient and of the mask ±0 at rate dead.
func sweepCase(rng *rand.Rand, rows, cols int, dead float64) (g, y *Matrix, shift []float64) {
	g, y = New(rows, cols), New(rows, cols)
	sweepFill(g.Data, rng)
	sweepFill(y.Data, rng)
	killColumns(g, dead, rng)
	killColumns(y, dead, rng)
	shift = make([]float64, rows)
	sweepFill(shift, rng)
	return g, y, shift
}

// sweepPending is the case's pending work: the shift when shifted, then
// the scale 1/n for a count n of 1–8 (bdq's 1/K and 1/D), none for 0.
func sweepPending(shift []float64, shifted bool, n int) Pending {
	var p Pending
	if shifted {
		p.Shift = shift
	}
	if n > 0 {
		p.Scale = 1 / float64(n)
	}
	return p
}

func TestSweepGradMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, shape := range [][2]int{{0, 5}, {5, 0}, {1, 1}, {32, 64}, {32, 48}, {32, 18}, {7, 9}, {64, 1}, {3, 17}, {13, 67}} {
		for _, dead := range []float64{0, 0.4} {
			g, y, shift := sweepCase(rng, shape[0], shape[1], dead)
			for n := 0; n <= 8; n++ {
				for _, shifted := range []bool{false, true} {
					for _, masked := range []bool{false, true} {
						mask := y
						if !masked {
							mask = nil
						}
						tag := fmt.Sprintf("%dx%d/dead=%v/scale=1/%d/shift=%t/mask=%t", shape[0], shape[1], dead, n, shifted, masked)
						requireSweep(t, tag, g, sweepPending(shift, shifted, n), mask)
					}
				}
			}
		}
	}
}

// FuzzSweepGrad drives SweepGrad against the unfused sequence over fuzzed
// shapes, dead-column rates and pending work, and then MulTransALive on
// the sweep's panels against the product that packs its own.
func FuzzSweepGrad(f *testing.F) {
	f.Add(int64(1), byte(32), byte(64), byte(0), byte(0b011))
	f.Add(int64(2), byte(32), byte(18), byte(0), byte(0b100))
	f.Add(int64(3), byte(32), byte(48), byte(120), byte(0b1001))
	f.Add(int64(4), byte(9), byte(13), byte(255), byte(0b10001))
	f.Add(int64(5), byte(0), byte(7), byte(0), byte(0))
	f.Fuzz(func(t *testing.T, seed int64, rb, cb, deadb, mode byte) {
		rows, cols := clampDim(rb), clampDim(cb)
		rng := rand.New(rand.NewSource(seed))
		g, y, shift := sweepCase(rng, rows, cols, float64(deadb)/255)
		mask := y
		if mode&1 == 0 {
			mask = nil
		}
		p := sweepPending(shift, mode&2 != 0, int(mode>>2)%9)
		requireSweep(t, fmt.Sprintf("%dx%d/mode=%b", rows, cols, mode), g, p, mask)

		// dW on the sweep's panels, compacted in place where the product
		// leaves dead columns out, is the product that packs them.
		x := New(rows, 1+int(mode)%40)
		fuzzFill(x.Data, rng)
		gs, dst := g, (*Matrix)(nil)
		if mask != nil || !p.none() {
			dst = New(rows, cols)
			gs = dst
		}
		gp := PackedB{K: rows, N: cols, Data: make([]float64, (cols+nr-1)/nr*nr*rows)}
		withKernels(t, func(kernel string) {
			var live Live
			SweepGrad(dst, g, p, mask, make([]float64, cols), &live, &gp)
			want, got := New(x.Cols, cols), New(x.Cols, cols)
			MulTransALive(want, x, nil, gs, nil, nil)
			fuzzFill(got.Data, rng)
			MulTransALive(got, x, nil, gs, &live, &gp)
			requireBitsEqual(t, "MulTransALive on the sweep's panels/"+kernel, got, want)
		})
	})
}
