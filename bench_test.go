// Package vmgrid's top-level benchmarks regenerate the paper's
// evaluation and the ablations indexed in DESIGN.md: one
// BenchmarkExperiment/<name> per entry of experiments.Experiments. Each
// benchmark iteration runs the full experiment in simulated time; the
// reported ns/op is host time to simulate it, and samples/sec —
// simulation samples completed per host second — is the
// paper-meaningful throughput number to track across commits (the
// paper-comparable outputs are printed in the tables via cmd/gridbench
// and recorded in EXPERIMENTS.md).
package vmgrid_test

import (
	"fmt"
	"runtime"
	"testing"

	"vmgrid/internal/chunk"
	"vmgrid/internal/experiments"
	"vmgrid/internal/gram"
	"vmgrid/internal/hostos"
	"vmgrid/internal/hw"
	"vmgrid/internal/netsim"
	"vmgrid/internal/placement"
	"vmgrid/internal/sim"
	"vmgrid/internal/storage"
)

// fig1Samples is the per-scenario sample count BenchmarkRunnerParallel
// uses (the paper uses 1000; 200 keeps iterations short without
// changing shape).
const fig1Samples = 200

// BenchmarkExperiment runs every registered experiment at its default
// sample count, one sub-benchmark per experiment.
func BenchmarkExperiment(b *testing.B) {
	for _, e := range experiments.Experiments {
		b.Run(e.Name, func(b *testing.B) {
			samples := 0
			for i := 0; i < b.N; i++ {
				_, n, err := e.Run(experiments.Ctx{Seed: uint64(i + 1)})
				if err != nil {
					b.Fatal(err)
				}
				samples = n
			}
			reportSamplesPerSec(b, samples)
		})
	}
}

// reportSamplesPerSec converts ns/op into the paper-meaningful
// throughput metric: independent simulation samples completed per host
// second across the whole benchmark run.
func reportSamplesPerSec(b *testing.B, samplesPerOp int) {
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(samplesPerOp*b.N)/sec, "samples/sec")
	}
}

// BenchmarkRunnerParallel measures the deterministic fan-out engine on
// the two sample-heavy experiments at increasing worker counts. On a
// multi-core host the workers=4 lines complete the same byte-identical
// tables several times faster than workers=1; on a single-core host the
// lines coincide (and bound the engine's overhead).
func BenchmarkRunnerParallel(b *testing.B) {
	counts := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 2 && n != 4 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		workers := workers
		b.Run(fmt.Sprintf("fig1/workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := experiments.Figure1(experiments.Fig1Config{
					Seed: 1, Samples: fig1Samples, Workers: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(rows) != 12 {
					b.Fatalf("rows = %d", len(rows))
				}
			}
			reportSamplesPerSec(b, 12*fig1Samples)
		})
		b.Run(fmt.Sprintf("table2/workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := experiments.Table2(experiments.Table2Config{
					Seed: 1, Samples: 10, Workers: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(rows) != 6 {
					b.Fatalf("rows = %d", len(rows))
				}
			}
			reportSamplesPerSec(b, 6*10)
		})
	}
}

// BenchmarkPlacement measures the raw placement decision rate: one op
// runs each built-in policy's Pick over a 64-node candidate pool (the
// per-create / per-restore / per-balancer-tick hot path). samples/sec
// here is placement decisions per host second.
func BenchmarkPlacement(b *testing.B) {
	rng := sim.NewRNG(1)
	cands := make([]placement.Candidate, 64)
	for i := range cands {
		cands[i] = placement.Candidate{
			Node:      fmt.Sprintf("node%02d", i),
			Site:      "a",
			Slots:     1 + i%4,
			Speed:     1 + rng.Uniform(0, 1),
			Load:      rng.Uniform(0, 4),
			Predicted: rng.Uniform(0, 4),
		}
	}
	req := placement.Request{Session: "vm-bench", User: "bench", Image: "rh72"}
	policies := []placement.Placer{
		placement.LeastLoaded{}, placement.PredictedLoad{}, placement.Pack{},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range policies {
			if _, ok := p.Pick(req, cands); !ok {
				b.Fatalf("%s: no placement from a full pool", p.Name())
			}
		}
	}
	reportSamplesPerSec(b, len(policies))
}

// BenchmarkChunkedStage measures the content-addressed staging hot
// path: one op stages a 256 MB image cold (every chunk crosses the
// wire) and then re-stages it warm (every chunk hits the destination
// cache) between two LAN nodes sharing a chunk plane. B/op is what the
// two stages allocate.
func BenchmarkChunkedStage(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel(uint64(i + 1))
		net := netsim.New(k)
		if err := net.BuildLAN("src", "dst"); err != nil {
			b.Fatal(err)
		}
		srcHost, err := hostos.New(k, hw.ReferenceMachine("src"))
		if err != nil {
			b.Fatal(err)
		}
		dstHost, err := hostos.New(k, hw.ReferenceMachine("dst"))
		if err != nil {
			b.Fatal(err)
		}
		plane := chunk.NewPlane(chunk.Config{})
		src := storage.NewStore(srcHost)
		src.SetChunkPlane(plane)
		dst := storage.NewStore(dstHost)
		dst.SetChunkPlane(plane)
		if err := src.Create("image", 256<<20); err != nil {
			b.Fatal(err)
		}
		for _, as := range []string{"cold", "warm"} {
			ok := false
			if err := gram.Stage(net, "src", src, "image", "dst", dst, as, func(err error) {
				if err != nil {
					b.Error(err)
				}
				ok = true
			}); err != nil {
				b.Fatal(err)
			}
			k.Run()
			if !ok {
				b.Fatalf("%s stage never finished", as)
			}
		}
	}
	reportSamplesPerSec(b, 2)
}
