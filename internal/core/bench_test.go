package core

import (
	"testing"

	"repro/internal/topo"
)

// BenchmarkRebuild8x8x8 measures the rerouting time of SurePath on the
// paper's 8x8x8: one more random link failure per iteration, then
// Mechanism.Rebuild on the same mechanism, tables reused in place. ms/fault
// is the row ROADMAP aim 1 asks for; B/op shows what a fault allocates.
func BenchmarkRebuild8x8x8(b *testing.B) {
	for _, c := range []struct {
		name string
		base BaseRoutes
	}{{"PolSP", PolarizedRoutes}, {"OmniSP", OmniRoutes}} {
		b.Run(c.name, func(b *testing.B) {
			h := topo.MustHyperX(8, 8, 8)
			// 256 of the 5376 links: the network stays connected (a switch
			// would have to lose all 21 of its links).
			faults := topo.RandomFaultSequence(h, 12)[:256]
			nw := topo.NewNetwork(h, nil)
			sp, err := New(nw, c.base, 4)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%len(faults) == 0 && i > 0 {
					b.StopTimer()
					nw.Faults = topo.NewFaultSet()
					b.StartTimer()
				}
				e := faults[i%len(faults)]
				nw.Faults.Add(e.U, e.V)
				if err := sp.Rebuild(nw); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/fault")
		})
	}
}
