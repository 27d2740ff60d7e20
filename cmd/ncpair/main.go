// Command ncpair gives a host-time verdict between two builds of the
// benchmark. It runs one `ncmark -child` repetition of each (workload, seed,
// rep) triple on both binaries, one after the other in an order a coin
// seeded from the triple picks, and fails if any simulated field differs
// between the two runs of a triple: a host-only change must replay the same
// simulation. Per workload and host metric it then prints the parent's
// median and quartiles, the change's median, the pairs the change reads lower
// in, an exact two-sided sign-test p (ties count for neither side) and a
// verdict: lower or higher when p is below alpha divided by the number of
// rows printed, so that alpha bounds the chance that any row of a run
// between two copies of one build reads other than unresolved.
//
//	go build -C benchmarks/ncmark -o OLD/ncmark .   # in a checkout of the parent
//	go build -C benchmarks/ncmark -o NEW/ncmark .   # in one of the change
//	go run ./cmd/ncpair OLD/ncmark NEW/ncmark
//
// ncpair repeats decisions that benchmarks/ncmark owns: the workload names
// (workloads.go), the GOMAXPROCS a repetition runs at (procs in main.go,
// parWorkers in workloads.go) and the host metrics' formulas (main.go).
// Those files are the source of truth; a change to them must be copied here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// The fixed repetition set and verdict level: every (workload, seed, rep)
// with rep < reps is one pair, and alpha is the family-wise sign-test level,
// split evenly over the rows printed.
var seeds = []uint64{1, 7}

const (
	reps  = 10
	alpha = 0.05
)

// child is what ncpair reads of one repetition's report: the simulated
// fields, which must match between the builds, and the host counters.
type child struct {
	Sim                 map[string]float64
	LoadOps             uint64
	Attempted, Failed   uint64
	P50Us, TailUs       float64
	Buckets             []uint64
	Events              uint64
	LoadCPUS, SetupCPUS float64
	Mallocs, AllocBytes uint64
	rssMB               float64
}

// simulated is the part of a report that depends only on the input.
func (c *child) simulated() any {
	return []any{c.Sim, c.LoadOps, c.Attempted, c.Failed, c.P50Us, c.TailUs, c.Buckets, c.Events}
}

// metrics are the host metrics compared, all lower-is-better, each worked
// out as ncmark's main.go does for one repetition.
var metrics = []struct {
	name string
	of   func(*child) float64
}{
	{"host_cpu_us_per_op", func(c *child) float64 { return c.LoadCPUS * 1e6 / float64(c.LoadOps) }},
	{"host_allocs_per_op", func(c *child) float64 { return float64(c.Mallocs) / float64(c.LoadOps) }},
	{"host_alloc_kb_per_op", func(c *child) float64 { return float64(c.AllocBytes) / 1024 / float64(c.LoadOps) }},
	{"host_peak_rss_mb", func(c *child) float64 { return c.rssMB }},
	{"setup_s", func(c *child) float64 { return c.SetupCPUS }},
}

func main() {
	workloads := flag.String("workloads", "nfs-hit,nfs-miss,sfs-mix,writeback,scaleout,scaleout-par,mirror-outage", "comma-separated workloads")
	flag.Parse()
	if flag.NArg() != 2 {
		fail(fmt.Errorf("usage: ncpair [-workloads W,...] PARENT_NCMARK CHANGE_NCMARK"))
	}
	start := time.Now()
	names := strings.Split(*workloads, ",")
	level := alpha / float64(len(names)*len(metrics))
	fmt.Printf("verdicts at p < %.3g per row (%g over %d rows)\n", level, alpha, len(names)*len(metrics))
	for _, w := range names {
		var pairs [][2]*child
		for _, seed := range seeds {
			for rep := 0; rep < reps; rep++ {
				p, err := runPair(flag.Arg(0), flag.Arg(1), w, seed, rep)
				if err != nil {
					fail(err)
				}
				pairs = append(pairs, p)
			}
		}
		report(w, pairs, level)
	}
	fmt.Printf("simulated fields identical in every pair; %.0f s wall\n", time.Since(start).Seconds())
}

// runPair runs one triple on both binaries and checks that they simulated
// the same thing.
func runPair(parent, change, w string, seed uint64, rep int) ([2]*child, error) {
	var out [2]*child
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", w, seed, rep)
	first := int(h.Sum64() >> 63) // the coin: which binary goes first
	bins := [2]string{parent, change}
	for i := range bins {
		k := (first + i) % 2
		c, err := runChild(bins[k], w, seed, rep)
		if err != nil {
			return out, err
		}
		out[k] = c
	}
	if !reflect.DeepEqual(out[0].simulated(), out[1].simulated()) {
		return out, fmt.Errorf("%s seed %d rep %d: simulated fields differ between the builds:\n  parent %v\n  change %v",
			w, seed, rep, out[0].simulated(), out[1].simulated())
	}
	return out, nil
}

// runChild runs one repetition in a fresh process, as ncmark's own runner
// does, and reads its report and peak RSS.
func runChild(exe, w string, seed uint64, rep int) (*child, error) {
	arg, err := json.Marshal(map[string]any{"Workload": w, "Seed": seed, "Rep": rep, "Started": time.Now().UnixNano()})
	if err != nil {
		return nil, err
	}
	// As ncmark's procs does: the sharded engine's workload at min(nproc,
	// 4), every other one at 1, so that the collector's cost lands in the
	// measured thread.
	procs := 1
	if w == "scaleout-par" {
		procs = min(runtime.NumCPU(), 4)
	}
	cmd := exec.Command(exe, "-child", string(arg))
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs))
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s %s seed %d rep %d: %w", exe, w, seed, rep, err)
	}
	var c child
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("%s %s seed %d rep %d: %w", exe, w, seed, rep, err)
	}
	if c.LoadOps == 0 {
		return nil, fmt.Errorf("%s %s seed %d rep %d: no operations completed", exe, w, seed, rep)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		c.rssMB = float64(ru.Maxrss) / 1024 // Linux reports kilobytes
	}
	return &c, nil
}

// report prints one row per host metric for a workload's pairs.
func report(w string, pairs [][2]*child, alpha float64) {
	fmt.Printf("\n%s: %d pairs\n%-22s %34s %12s %8s %9s  %s\n", w, len(pairs),
		"metric", "parent median [q1, q3]", "change", "lower", "p", "verdict")
	for _, m := range metrics {
		var par, chg []float64
		lower, higher := 0, 0
		for _, p := range pairs {
			a, b := m.of(p[0]), m.of(p[1])
			par, chg = append(par, a), append(chg, b)
			switch {
			case b < a:
				lower++
			case b > a:
				higher++
			}
		}
		p := signTest(lower, higher)
		verdict := "unresolved"
		if p < alpha && lower > higher {
			verdict = "lower"
		} else if p < alpha {
			verdict = "higher"
		}
		fmt.Printf("%-22s %12.4g [%9.4g, %9.4g] %12.4g %5d/%-2d %9.3g  %s\n", m.name,
			quantile(par, 0.5), quantile(par, 0.25), quantile(par, 0.75), quantile(chg, 0.5),
			lower, len(pairs), p, verdict)
	}
}

// signTest is the exact two-sided sign-test p of k pairs one way and n the
// other: twice the binomial(k+n, 1/2) tail at the rarer count, at most 1.
func signTest(k, n int) float64 {
	total, tail := k+n, min(k, n)
	sum := 0.0
	for i := 0; i <= tail; i++ {
		sum += math.Exp(lchoose(total, i) - float64(total)*math.Ln2)
	}
	return math.Min(1, 2*sum)
}

// lchoose is log C(n, k).
func lchoose(n, k int) float64 {
	a, _ := math.Lgamma(float64(n + 1))
	b, _ := math.Lgamma(float64(k + 1))
	c, _ := math.Lgamma(float64(n - k + 1))
	return a - b - c
}

// quantile interpolates the q-quantile of v linearly between order
// statistics.
func quantile(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	x := q * float64(len(s)-1)
	i := int(x)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (x-float64(i))*(s[i+1]-s[i])
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ncpair:", err)
	os.Exit(1)
}
