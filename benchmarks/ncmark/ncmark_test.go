package main

import (
	"os"
	"testing"
)

// TestMain lets the test binary stand in for ncmark when a test spawns a
// repetition: the runner re-executes os.Executable() with -child.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestQuick is the smoke test: every workload, timed and traced, at -quick's
// 40 ms window. pick fails a run that does not compute a metric
// BENCHMARK.json lists, so passing means every listed name is emitted.
func TestQuick(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	r := runner{sp: sp, seed: 1, seconds: 1, quick: true}
	for i := range workloads {
		w := findWorkload(workloads[i].name)
		t.Run(w.name, func(t *testing.T) {
			timed, _, err := r.timed(w)
			if err != nil {
				t.Fatal(err)
			}
			traced, _, err := r.traced(w)
			if err != nil {
				t.Fatal(err)
			}
			for mode, res := range map[string]*result{"timed": timed, "traced": traced} {
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("%s: correct %v, attempted %d, failed %d", mode, res.Correct, res.Attempted, res.Failed)
				}
			}
			if len(timed.Metrics) != len(sp.EndToEnd) || len(traced.Metrics) != len(sp.PerLayer) {
				t.Errorf("emitted %d + %d metrics, BENCHMARK.json lists %d + %d",
					len(timed.Metrics), len(traced.Metrics), len(sp.EndToEnd), len(sp.PerLayer))
			}
			for name, v := range timed.Metrics {
				if v.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, v.Value)
				}
			}
		})
	}
}
