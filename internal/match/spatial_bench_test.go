package match

import (
	"math"
	"runtime"
	"testing"

	"popstab/internal/population"
	"popstab/internal/prng"
)

// The three benchmarks below evidence the sharded pipeline's speedup
// criterion at N = 2²⁰: the historical serial algorithm (the golden
// reference), the pipeline pinned to one worker, and the pipeline at
// NumCPU. Output is bit-identical across all three (see
// TestTorusGoldenAgainstSerialReference); only wall time differs.

func benchTorusSample(b *testing.B, workers int) {
	b.Helper()
	const n = 1 << 20
	tor, err := NewTorus(1 / math.Sqrt(float64(n)))
	if err != nil {
		b.Fatal(err)
	}
	pop := population.New(n)
	tor.Bind(pop, prng.New(1), nil)
	attachPool(b, tor, workers)
	src := prng.New(2)
	var p Pairing
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tor.SampleMatch(pop, src, &p)
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(n)*float64(b.N)/sec, "agentsteps/s")
	}
}

func BenchmarkTorusMatchReferenceSerialN1048576(b *testing.B) {
	const n = 1 << 20
	tor, err := NewTorus(1 / math.Sqrt(float64(n)))
	if err != nil {
		b.Fatal(err)
	}
	pop := population.New(n)
	tor.Bind(pop, prng.New(1), nil)
	pos := tor.Positions().Slice()
	src := prng.New(2)
	var p Pairing
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		referenceNearestSample(pos, src, &p)
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(n)*float64(b.N)/sec, "agentsteps/s")
	}
}

func BenchmarkTorusMatchPipelineW1N1048576(b *testing.B) { benchTorusSample(b, 1) }
func BenchmarkTorusMatchPipelineN1048576(b *testing.B)   { benchTorusSample(b, runtime.NumCPU()) }
