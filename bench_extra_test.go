package laminar_test

import (
	"testing"

	"laminar/internal/dacapo"
	"laminar/internal/difc"
	"laminar/internal/jvm"
	"laminar/internal/pagelabel"

	"laminar"
	"laminar/internal/apps/wiki"
)

// BenchmarkRegionDensity measures the overhead-vs-density sweep (§4.3):
// the same work at increasing in-region fractions.
func BenchmarkRegionDensity(b *testing.B) {
	for _, pt := range dacapo.RegionSweep() {
		for _, mode := range []struct {
			name string
			m    jvm.BarrierMode
		}{{"none", jvm.BarrierNone}, {"static", jvm.BarrierStatic}} {
			b.Run(pt.Name+"/"+mode.name, func(b *testing.B) {
				prog, err := dacapo.BuildRegionSweep(pt)
				if err != nil {
					b.Fatal(err)
				}
				mc, err := jvm.NewMachine(prog, jvm.CompileOptions{Mode: mode.m})
				if err != nil {
					b.Fatal(err)
				}
				th, err := jvm.HostThread(prog)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := mc.Call(th, "run", jvm.IntV(4)); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := mc.Call(th, "run", jvm.IntV(50)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkInlining measures the inlining × redundancy-elimination
// interaction on the dacapo suite (§5.1).
func BenchmarkInlining(b *testing.B) {
	configs := []struct {
		name string
		opts jvm.CompileOptions
	}{
		{"opt", jvm.CompileOptions{Mode: jvm.BarrierStatic, Optimize: true}},
		{"opt-inline", jvm.CompileOptions{Mode: jvm.BarrierStatic, Optimize: true, Inline: true}},
	}
	m := dacapo.Workloads[0]
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			prog, err := dacapo.Build(m)
			if err != nil {
				b.Fatal(err)
			}
			mc, err := jvm.NewMachine(prog, cfg.opts)
			if err != nil {
				b.Fatal(err)
			}
			th, err := jvm.HostThread(prog)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := mc.Call(th, "run", jvm.IntV(4)); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mc.Call(th, "run", jvm.IntV(50)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGranularity measures page-granularity allocation (the
// HiStar-like baseline) of 64 small objects under 64 distinct labels and
// reports the page space they waste. It runs the page side only; the
// comparison with object granularity, the space-pressure argument of
// §1/§2, is Table 1's probe (eval.Table1, pinned by TestTable1Probes).
func BenchmarkGranularity(b *testing.B) {
	labels := make([]difc.Labels, 64)
	for i := range labels {
		labels[i] = difc.Labels{S: difc.NewLabel(difc.Tag(i + 1))}
	}
	b.Run("page", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h := pagelabel.NewHeap()
			for j := 0; j < 64; j++ {
				if err := h.Alloc(64, labels[j%len(labels)]); err != nil {
					b.Fatal(err)
				}
			}
			st := h.Stats()
			b.ReportMetric(float64(st.BytesWasted), "wasted-bytes")
		}
	})
}

// BenchmarkWiki serves the same wiki request mix through region-based and
// monitor-based enforcement (§6.2 framing).
func BenchmarkWiki(b *testing.B) {
	b.Run("laminar", func(b *testing.B) {
		w, err := wiki.NewLaminar(laminar.NewSystem())
		if err != nil {
			b.Fatal(err)
		}
		if err := w.Register("alice"); err != nil {
			b.Fatal(err)
		}
		if err := w.Put("alice", "notes", "private"); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := w.Get("alice", "notes"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("monitor", func(b *testing.B) {
		w := wiki.NewFlume()
		w.Register("alice")
		w.Put("alice", "notes", "private")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := w.Get("alice", "notes"); err != nil {
				b.Fatal(err)
			}
		}
	})
}
