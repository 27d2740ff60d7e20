// Command ncmark is the repository's benchmark: seven named workloads, each
// measured on two clocks — the simulated one (the paper's MB/s, ops/s,
// latency, server CPU) and the host's (what the simulator costs to run) —
// plus a traced run that explains both layer by layer. BENCHMARK.json at the
// repository root names every metric with its unit, direction and bound;
// benchmarks/README.md says how to read the output.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spec is the part of BENCHMARK.json the program reads: it emits exactly
// the metrics listed there, with the units listed there.
type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
	root     string
}

// loadSpec finds BENCHMARK.json in the working directory or a parent.
func loadSpec() (*spec, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		raw, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			s := &spec{root: dir}
			if err := json.Unmarshal(raw, s); err != nil {
				return nil, fmt.Errorf("BENCHMARK.json: %w", err)
			}
			return s, nil
		}
		if filepath.Dir(dir) == dir {
			return nil, errors.New("BENCHMARK.json not found in the working directory or any parent")
		}
		dir = filepath.Dir(dir)
	}
}

func (s *spec) outDir() string { return filepath.Join(s.root, "benchmarks", "out") }

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's outcome; its first four fields are the line the
// benchmark contract asks for.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// resultFile is what a run writes under benchmarks/out/ and -compare reads.
type resultFile struct {
	Go         string             `json:"go"`
	NumCPU     int                `json:"num_cpu"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	ParWorkers int                `json:"scaleout_par_workers"`
	Seed       uint64             `json:"seed"`
	Seconds    int                `json:"seconds"`
	Workloads  map[string]*result `json:"workloads"`
	// Unbounded holds, per workload of a timed run, what is measured and
	// printed but not bounded: host times and latency percentiles, which
	// this host cannot resolve within any bound the contract allows.
	Unbounded map[string]map[string]float64 `json:"unbounded,omitempty"`
	Phases    map[string][]phaseSpan        `json:"phases,omitempty"`
	Claim     *string                       `json:"claim"`
}

func main() {
	workload := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Uint64("seed", 1, "seeds every stream of the load driver")
	seconds := flag.Int("seconds", 10, "host seconds of load to measure per workload")
	traced := flag.Int("trace", 0, "1 runs the per-layer traced set instead of the timed repetitions")
	quick := flag.Bool("quick", false, "smoke test: 40 ms windows, one repetition, no result file")
	compare := flag.Bool("compare", false, "compare two result files: ncmark -compare A.json B.json")
	kernelsOnly := flag.Bool("kernels", false, "time the layer kernels alone")
	child := flag.String("child", "", "internal: run one repetition described by this JSON")
	flag.Parse()

	if *child != "" {
		var o repOpts
		err := json.Unmarshal([]byte(*child), &o)
		var res *repResult
		if err == nil {
			res, err = runRep(o)
		}
		if err == nil {
			err = json.NewEncoder(os.Stdout).Encode(res)
		}
		exit(err)
		return
	}
	sp, err := loadSpec()
	exit(err)
	switch {
	case *compare:
		if flag.NArg() != 2 {
			exit(errors.New("usage: ncmark -compare A.json B.json"))
		}
		regressed, err := compareFiles(sp, flag.Arg(0), flag.Arg(1))
		exit(err)
		if regressed {
			os.Exit(1)
		}
	case *kernelsOnly:
		k := runKernels(kernelRound(*seconds, *quick))
		var specs []metricSpec
		for _, s := range sp.PerLayer {
			if _, ok := k[s.Name]; ok {
				specs = append(specs, s)
			}
		}
		m, err := pick(specs, k)
		exit(err)
		printMetrics(specs, m)
	default:
		exit(runAll(sp, *workload, *seed, *seconds, *traced == 1, *quick))
	}
}

func exit(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "ncmark:", err)
		os.Exit(2)
	}
}

// runAll measures the named workload (or all seven), prints each table and,
// unless quick, writes the result file. The last line of standard output is
// the last workload's result as one JSON object.
func runAll(sp *spec, name string, seed uint64, seconds int, traced, quick bool) error {
	var list []*workload
	for i := range workloads {
		if name == "all" || name == workloads[i].name {
			list = append(list, &workloads[i])
		}
	}
	if len(list) == 0 {
		return fmt.Errorf("unknown workload %q", name)
	}
	out := resultFile{
		Go: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		ParWorkers: parWorkers(), Seed: seed, Seconds: seconds,
		Workloads: map[string]*result{}, Unbounded: map[string]map[string]float64{},
		Phases: map[string][]phaseSpan{},
	}
	fmt.Printf("ncmark: %s, num_cpu %d, gomaxprocs %d, scaleout-par workers %d, seed %d\n",
		out.Go, out.NumCPU, out.GOMAXPROCS, out.ParWorkers, seed)
	r := runner{sp: sp, seed: seed, seconds: seconds, quick: quick}
	var last *result
	for _, w := range list {
		start := time.Now()
		var res *result
		var err error
		specs := sp.EndToEnd
		if traced {
			specs = sp.PerLayer
			var phases []phaseSpan
			res, phases, err = r.traced(w)
			out.Phases[w.name] = phases
		} else {
			res, out.Unbounded[w.name], err = r.timed(w)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		fmt.Printf("\n%s  (correct %v, attempted %d, failed %d, fail_pct %.4g, %.1f s)\n", w.name,
			res.Correct, res.Attempted, res.Failed, 100*float64(res.Failed)/float64(res.Attempted),
			time.Since(start).Seconds())
		printMetrics(specs, res.Metrics)
		out.Workloads[w.name] = res
		last = res
	}
	if !quick {
		file := "results.json"
		if traced {
			file = "layers.json"
		}
		raw, err := json.MarshalIndent(out, "", " ")
		if err != nil {
			return err
		}
		if err := os.MkdirAll(sp.outDir(), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(sp.outDir(), file), append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	fmt.Println()
	return json.NewEncoder(os.Stdout).Encode(last)
}

func printMetrics(specs []metricSpec, m map[string]value) {
	for _, s := range specs {
		fmt.Printf("  %-38s %14.6g %s\n", s.Name, m[s.Name].Value, s.Unit)
	}
}

// pick reports, from computed values, exactly the metrics the spec lists.
func pick(specs []metricSpec, computed map[string]float64) (map[string]value, error) {
	out := map[string]value{}
	for _, s := range specs {
		v, ok := computed[s.Name]
		if !ok {
			return nil, fmt.Errorf("BENCHMARK.json lists %s, which the benchmark does not compute", s.Name)
		}
		out[s.Name] = value{v, s.Unit}
	}
	return out, nil
}

type runner struct {
	sp      *spec
	seed    uint64
	seconds int
	quick   bool
}

// spawn runs one repetition in a fresh child process, so peak RSS and GC
// state are the repetition's own and a crash loses one workload, not the run.
func (r *runner) spawn(w *workload, o repOpts) (*repResult, float64, error) {
	o.Workload, o.Seed, o.Quick = w.name, r.seed, r.quick
	o.Started = time.Now().UnixNano()
	if !r.quick {
		o.OutDir = r.sp.outDir()
	}
	arg, err := json.Marshal(o)
	if err != nil {
		return nil, 0, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(exe, "-child", string(arg))
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs(w, o)))
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("repetition %d: %w", o.Rep, err)
	}
	var res repResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, 0, fmt.Errorf("repetition %d: %w", o.Rep, err)
	}
	rssMB := 0.0
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024 // Linux reports kilobytes
	}
	return &res, rssMB, nil
}

// procs is the GOMAXPROCS a repetition runs at: one thread for the
// sequential engine, so that the garbage collector's cost lands in the
// measured thread's time instead of depending on whether a second CPU
// happens to be free; the worker count for the sharded engine.
func procs(w *workload, o repOpts) int {
	if w.workers == 0 || o.OneWorker {
		return 1
	}
	return w.workers
}

// simDiff lists the simulated metrics on which two repetitions differ.
func simDiff(a, b *repResult) []string {
	var out []string
	for k, v := range a.Sim {
		if b.Sim[k] != v {
			out = append(out, fmt.Sprintf("%s: %v vs %v", k, v, b.Sim[k]))
		}
	}
	if a.Attempted != b.Attempted {
		out = append(out, fmt.Sprintf("attempted: %d vs %d", a.Attempted, b.Attempted))
	}
	sort.Strings(out)
	return out
}

func (r *repResult) cpuUsPerOp() float64 { return r.LoadCPUS * 1e6 / float64(r.LoadOps) }

// timed runs untraced repetitions, each on its own sub-seed, until about
// r.seconds of load phase have been measured (at least three), and reports
// the end-to-end metrics: simulated ones as the median over repetitions,
// host times as the fastest repetition.
func (r *runner) timed(w *workload) (*result, map[string]float64, error) {
	var reps []*repResult
	var rss []float64
	measured, minReps := 0.0, 3
	if r.quick {
		minReps = 1
	}
	for len(reps) < minReps || (!r.quick && measured+measured/float64(2*len(reps)) < float64(r.seconds)) {
		res, mb, err := r.spawn(w, repOpts{Rep: len(reps)})
		if err != nil {
			return nil, nil, err
		}
		reps, rss = append(reps, res), append(rss, mb)
		measured += res.LoadS
	}
	out := &result{Correct: true}
	col := func(f func(*repResult) float64) []float64 {
		v := make([]float64, len(reps))
		for i, rep := range reps {
			v[i] = f(rep)
		}
		sort.Float64s(v)
		return v
	}
	for i, rep := range reps {
		out.Attempted += rep.Attempted
		out.Failed += rep.Failed
		for _, e := range rep.Errors {
			fmt.Fprintf(os.Stderr, "ncmark: %s rep %d: %s\n", w.name, i, e)
		}
	}
	out.Correct = out.Failed == 0
	setup := col(func(r *repResult) float64 { return r.SetupCPUS })
	computed := map[string]float64{
		// Every repetition does near-identical work and host noise only
		// adds, so the cheapest one is the steadiest estimate of a host time.
		"setup_s":              setup[0],
		"host_events_per_op":   median(col(func(r *repResult) float64 { return float64(r.Events) / float64(r.LoadOps) })),
		"host_allocs_per_op":   median(col(func(r *repResult) float64 { return float64(r.Mallocs) / float64(r.LoadOps) })),
		"host_alloc_kb_per_op": median(col(func(r *repResult) float64 { return float64(r.AllocBytes) / 1024 / float64(r.LoadOps) })),
		"host_peak_rss_mb":     median(sorted(rss)),
	}
	for k := range reps[0].Sim {
		computed[k] = median(col(func(r *repResult) float64 { return r.Sim[k] }))
	}
	cpu := col((*repResult).cpuUsPerOp)
	wall := col(func(r *repResult) float64 { return r.LoadS * 1e6 / float64(r.LoadOps) })
	unbounded := map[string]float64{
		"host_cpu_us_per_op_min":    cpu[0],
		"host_cpu_us_per_op_median": median(cpu),
		"host_wall_us_per_op_min":   wall[0],
		"sim_p50_us":                median(col(func(r *repResult) float64 { return r.P50Us })),
		"sim_tail_us":               median(col(func(r *repResult) float64 { return r.TailUs })),
		"sim_tail_pct":              reps[0].TailPct,
	}
	fmt.Printf("\n%s: %d repetitions, %.1f s of load, about %d latency samples each; not bounded:\n"+
		"  host CPU us/op min/median/max %.4g/%.4g/%.4g, wall us/op min %.4g, set-up CPU s min/median/max %.3g/%.3g/%.3g\n"+
		"  latency p50 %.4g us, p%.4g %.4g us (medians over repetitions)\n",
		w.name, len(reps), measured, reps[0].Samples, cpu[0], median(cpu), cpu[len(cpu)-1], wall[0],
		setup[0], median(setup), setup[len(setup)-1],
		unbounded["sim_p50_us"], unbounded["sim_tail_pct"], unbounded["sim_tail_us"])
	var err error
	out.Metrics, err = pick(r.sp.EndToEnd, computed)
	return out, unbounded, err
}

func sorted(v []float64) []float64 { sort.Float64s(v); return v }

func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// traced runs the per-layer set for one workload: an untraced repetition as
// the baseline, the traced one, the Original-mode reference arm where the
// paper gives a figure, a Workers: 1 rerun of the sharded input, and the
// layer kernels.
func (r *runner) traced(w *workload) (*result, []phaseSpan, error) {
	base, _, err := r.spawn(w, repOpts{})
	if err != nil {
		return nil, nil, err
	}
	tr, _, err := r.spawn(w, repOpts{Traced: true})
	if err != nil {
		return nil, nil, err
	}
	out := &result{Correct: true, Attempted: base.Attempted + tr.Attempted, Failed: base.Failed + tr.Failed}
	m := tr.Layers
	m["trace.host_overhead_pct"] = 100 * (tr.cpuUsPerOp()/base.cpuUsPerOp() - 1)
	m["trace.sim_drift"] = 0
	if d := simDiff(base, tr); len(d) > 0 {
		m["trace.sim_drift"] = 1
		out.Correct = false
		fmt.Fprintf(os.Stderr, "ncmark: %s: tracing moved the simulated metrics:\n  %s\n", w.name, strings.Join(d, "\n  "))
	}
	m["passthru.ncache_gain_pct"] = 0
	if w.gainMetric != "" {
		ref, _, err := r.spawn(w, repOpts{Original: true})
		if err != nil {
			return nil, nil, err
		}
		out.Attempted, out.Failed = out.Attempted+ref.Attempted, out.Failed+ref.Failed
		m["passthru.ncache_gain_pct"] = 100 * (base.Sim[w.gainMetric]/ref.Sim[w.gainMetric] - 1)
		fmt.Printf("\n%s: NCache over Original on %s: %+.1f%%; the paper reports %s\n",
			w.name, w.gainMetric, m["passthru.ncache_gain_pct"], w.paperGain)
	}
	if w.workers > 0 {
		// Only host metrics may depend on the worker count.
		one, _, err := r.spawn(w, repOpts{OneWorker: true})
		if err != nil {
			return nil, nil, err
		}
		out.Attempted, out.Failed = out.Attempted+one.Attempted, out.Failed+one.Failed
		if d := simDiff(base, one); len(d) > 0 {
			out.Correct = false
			fmt.Fprintf(os.Stderr, "ncmark: %s: Workers %d and Workers 1 disagree:\n  %s\n", w.name, w.workers, strings.Join(d, "\n  "))
		}
	}
	for _, e := range append(base.Errors, tr.Errors...) {
		fmt.Fprintf(os.Stderr, "ncmark: %s: %s\n", w.name, e)
	}
	for k, v := range runKernels(kernelRound(r.seconds, r.quick)) {
		m[k] = v
	}
	out.Correct = out.Correct && out.Failed == 0 && m["trace.attr_errors"] == 0
	out.Metrics, err = pick(r.sp.PerLayer, m)
	return out, append(base.Phases, tr.Phases...), err
}

// compareFiles prints, per workload and end-to-end metric, both values, the
// change and the bound, and reports whether anything regressed.
func compareFiles(sp *spec, a, b string) (bool, error) {
	files := [2]resultFile{}
	for i, path := range []string{a, b} {
		raw, err := os.ReadFile(path)
		if err != nil {
			return false, err
		}
		if err := json.Unmarshal(raw, &files[i]); err != nil {
			return false, fmt.Errorf("%s: %w", path, err)
		}
	}
	fa, fb := files[0], files[1]
	fmt.Printf("A: %s num_cpu %d seed %d   B: %s num_cpu %d seed %d\n", fa.Go, fa.NumCPU, fa.Seed, fb.Go, fb.NumCPU, fb.Seed)
	regressed := false
	for _, w := range workloads {
		ra, rb := fa.Workloads[w.name], fb.Workloads[w.name]
		if ra == nil || rb == nil {
			continue
		}
		fmt.Printf("\n%s\n  %-26s %14s %14s %9s %7s\n", w.name, "metric", "A", "B", "change", "bound")
		for _, s := range sp.EndToEnd {
			va, vb := ra.Metrics[s.Name].Value, rb.Metrics[s.Name].Value
			if va == 0 {
				continue // not a timed run's file
			}
			worse := (vb - va) / va
			if s.Better == "higher" {
				worse = -worse
			}
			verdict := "within bound"
			switch {
			case worse > s.Bound:
				verdict, regressed = "regressed", true
			case worse < -s.Bound:
				verdict = "improved"
			}
			fmt.Printf("  %-26s %14.6g %14.6g %+8.2f%% %6.1f%%  %s\n", s.Name, va, vb, 100*(vb-va)/va, 100*s.Bound, verdict)
		}
		for _, k := range []string{"host_cpu_us_per_op_min", "host_wall_us_per_op_min", "sim_p50_us", "sim_tail_us"} {
			if va, vb := fa.Unbounded[w.name][k], fb.Unbounded[w.name][k]; va != 0 {
				fmt.Printf("  %-26s %14.6g %14.6g %+8.2f%%          not bounded\n", k, va, vb, 100*(vb-va)/va)
			}
		}
		if rb.Failed > ra.Failed || (ra.Correct && !rb.Correct) {
			fmt.Printf("  failed %d -> %d, correct %v -> %v  regressed\n", ra.Failed, rb.Failed, ra.Correct, rb.Correct)
			regressed = true
		}
	}
	return regressed, nil
}
