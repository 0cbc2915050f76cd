package replay

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/twig-sched/twig/internal/checkpoint"
)

func benchTransition(i int) Transition {
	return Transition{
		State:     []float64{float64(i), 0.5, 0.2},
		Actions:   []int{i % 18, i % 9},
		Rewards:   []float64{float64(i % 7)},
		NextState: []float64{float64(i + 1), 0.5, 0.2},
	}
}

func BenchmarkPrioritizedAdd(b *testing.B) {
	p := NewPrioritized(1_000_000, 0.6, 0.4, 25_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Add(benchTransition(i))
	}
}

func BenchmarkPrioritizedSample64(b *testing.B) {
	p := NewPrioritized(1_000_000, 0.6, 0.4, 25_000)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100_000; i++ {
		p.Add(benchTransition(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := p.Sample(64, rng)
		p.UpdatePriorities(batch.Indices, batch.Weights)
	}
}

func BenchmarkUniformSample64(b *testing.B) {
	u := NewUniform(1_000_000)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100_000; i++ {
		u.Add(benchTransition(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.Sample(64, rng)
	}
}

// The codec's cost follows the fill, not the capacity: at the paper's
// 10⁶ slots a buffer holding 10³ transitions encodes and decodes about
// a hundred times faster than one holding 10⁵. (Scanning the dense tree
// put a floor of two passes over 2·10⁶ nodes under both.)
func benchFilled(fill int) (*Prioritized, []byte) {
	p := NewPrioritized(1_000_000, 0.6, 0.4, 25_000)
	for i := 0; i < fill; i++ {
		p.Add(benchTransition(i))
	}
	e := checkpoint.NewEncoder()
	p.EncodeState(e)
	return p, e.Bytes()
}

func BenchmarkPrioritizedEncodeState(b *testing.B) {
	for _, fill := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("fill=%d", fill), func(b *testing.B) {
			p, data := benchFilled(fill)
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := checkpoint.NewEncoder()
				p.EncodeState(e)
				benchSink = len(e.Bytes())
			}
		})
	}
}

func BenchmarkPrioritizedDecodeState(b *testing.B) {
	for _, fill := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("fill=%d", fill), func(b *testing.B) {
			p, data := benchFilled(fill)
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.DecodeState(checkpoint.NewDecoder(data)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var benchSink int
