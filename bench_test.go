package ncache_test

// One benchmark per registered experiment: every table and figure of the
// paper's evaluation (§5), the ablations of the design decisions DESIGN.md
// calls out, and the post-paper extensions. Each runs the full simulated
// experiment (deterministic, virtual-time) and reports its headline
// quantities — the same record `ncbench -benchjson` writes — as custom
// metrics. Run with:
//
//	go test -bench=. -benchmem
//	go test -bench=Experiments/fig5b
//
// cmd/ncbench runs the same registry with longer windows.

import (
	"fmt"
	"testing"

	"ncache/internal/bench"
	"ncache/internal/sim"
)

func BenchmarkExperiments(b *testing.B) {
	// Quick settings for the testing.B variants; ncbench uses longer windows.
	opt := bench.Options{
		Warmup:      50 * sim.Millisecond,
		Window:      200 * sim.Millisecond,
		Concurrency: 8,
		Scale:       8,
	}
	for _, e := range bench.Experiments {
		e := e
		b.Run(e.Name, func(b *testing.B) {
			var res bench.Result
			for i := 0; i < b.N; i++ {
				var err error
				if res, err = e.Run(opt); err != nil {
					b.Fatal(err)
				}
			}
			for name, v := range res.Headline {
				b.ReportMetric(v, name)
			}
			fmt.Print(res.Text)
		})
	}
}
