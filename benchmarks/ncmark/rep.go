package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"ncache/internal/extfs"
	"ncache/internal/nfs"
	"ncache/internal/passthru"
	"ncache/internal/sim"
	"ncache/internal/storage"
	"ncache/internal/trace"
)

// repOpts selects one repetition; the parent passes it to a fresh child
// process as JSON.
type repOpts struct {
	Workload string
	// Seed and Rep together seed the driver: every repetition of a run
	// draws its own operation streams, so a run's medians average over
	// inputs as well as over host noise.
	Seed uint64
	Rep  int
	// Original runs the reference arm (passthru.Original, no NCache).
	Original bool
	// OneWorker reruns a sharded workload's input at Workers: 1.
	OneWorker bool
	// Traced attaches the tracer, counter snapshots and the CPU profile and
	// checks every READ; OutDir, if set, receives the trace and profile.
	Traced bool
	OutDir string
	// Quick shrinks warm-up and window for smoke tests.
	Quick bool
	// Started is the parent's clock when it spawned the child (unix ns):
	// the origin of the phase spans.
	Started int64
}

// phaseSpan is one host-time span the benchmark records around its calls
// into the program.
type phaseSpan struct {
	Name    string  `json:"name"`
	Parent  string  `json:"parent"`
	Rep     int     `json:"rep"`
	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`
}

// repResult is what one repetition reports.
type repResult struct {
	// Sim holds the simulated-clock end-to-end metrics, exact for the
	// repetition's (seed, rep) input.
	Sim map[string]float64
	// Window latency over all ops, for the report's header line; the tail
	// is p99, or with under 1000 samples the highest percentile (TailPct)
	// that still has ten samples beyond it.
	P50Us, TailUs, TailPct float64
	Samples                int
	// Host clocks over the load phase (warm-up + window + drain): process
	// CPU time (user + system, every thread) and wall-clock.
	LoadCPUS   float64
	LoadS      float64
	LoadOps    uint64
	Events     uint64 // simulator events executed
	Mallocs    uint64
	AllocBytes uint64
	// SetupCPUS is the process CPU time from entering runRep to the load
	// phase.
	SetupCPUS float64
	// Attempted/Failed count every operation of the load and the read-back.
	Attempted uint64
	Failed    uint64
	Errors    []string
	// Buckets is mirror-outage's timeline: completions per window bucket.
	Buckets []uint64           `json:",omitempty"`
	Layers  map[string]float64 `json:",omitempty"`
	Phases  []phaseSpan        `json:",omitempty"`
}

type rep struct {
	o     repOpts
	w     *workload
	cl    *passthru.Cluster
	scs   []*passthru.ScaleClient
	d     *driver
	res   *repResult
	epoch time.Time
	// resyncMs is the simulated time a mirror arm spent in resync, at the
	// outage window's bucket resolution.
	resyncMs float64
}

// span opens a host-time phase span; the returned func closes it.
func (r *rep) span(name, parent string) func() {
	start := time.Since(r.epoch)
	return func() {
		r.res.Phases = append(r.res.Phases, phaseSpan{
			Name: name, Parent: parent, Rep: r.o.Rep,
			StartMs: ms(start), EndMs: ms(time.Since(r.epoch)),
		})
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// totals sums the streams' counters; call only between engine runs.
type totals struct{ attempted, failed, ops, bytes uint64 }

// errors returns the first few failures the streams noted.
func (d *driver) errors() []string {
	var out []string
	for _, s := range d.streams {
		out = append(out, s.errs...)
	}
	if len(out) > 8 {
		out = out[:8]
	}
	return out
}

func (d *driver) totals() (t totals) {
	for _, s := range d.streams {
		t.attempted += s.attempted
		t.failed += s.failed
		t.ops += s.ops
		t.bytes += s.bytes
	}
	return t
}

// runRep runs one repetition: set-up, load phase, read-back.
func runRep(o repOpts) (*repResult, error) {
	w := findWorkload(o.Workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", o.Workload)
	}
	// Set-up time starts here, not at exec: loading the binary and starting
	// the runtime cost a few noisy milliseconds that are not the program's.
	entered := processCPU()
	r := &rep{o: o, w: w, res: &repResult{}, epoch: time.Unix(0, o.Started)}
	warmup, window := w.warmup, w.window
	if o.Quick {
		warmup, window = 20*sim.Millisecond, 40*sim.Millisecond
	}
	if err := r.setup(); err != nil {
		return nil, err
	}
	defer r.cl.Close()
	cl, d, eng := r.cl, r.d, r.cl.Eng

	var tr *trace.Tracer
	if o.Traced {
		tr = trace.NewTracer(eng, w.name)
		tr.SetKeepSpans(true)
		d.tracer = tr
	}
	d.verifyAll = o.Traced
	syncing := w.syncEvery > 0
	for i, app := range cl.Apps {
		if !syncing {
			break
		}
		// Each flusher ticks on its own server's shard; syncing is written
		// only between runs.
		app, e := app, app.Node.Eng
		var tick func()
		tick = func() {
			if syncing {
				app.Cache.Sync(func(error) {})
				e.Schedule(w.syncEvery, tick)
			}
		}
		e.Schedule(w.syncEvery+sim.Duration(i)*sim.Millisecond, tick)
	}

	// Load phase. Host metrics cover all of it, simulated ones the window.
	endLoad := r.span("load", "rep")
	var prof bytes.Buffer
	if o.Traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile() // a second stop, on the error paths, is a no-op
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	h0 := hostNow(eng)
	r.res.SetupCPUS = (h0.cpu - entered).Seconds()
	before := d.totals()

	end := r.span("warmup", "load")
	cl.Faults.Arm()
	d.start()
	if err := eng.RunFor(warmup); err != nil {
		return nil, fmt.Errorf("warmup: %w", err)
	}
	end()

	end = r.span("window", "load")
	r.resetStats()
	tr.ResetStats()
	var c0, c1 map[string]float64
	if o.Traced {
		c0 = r.counters()
	}
	t0 := d.totals()
	d.recording = true
	if w.outage {
		var err error
		if r.res.Buckets, err = r.outageWindow(window); err != nil {
			return nil, err
		}
	} else if err := eng.RunFor(window); err != nil {
		return nil, fmt.Errorf("window: %w", err)
	}
	d.recording = false
	t1 := d.totals()
	tr.Freeze()
	if o.Traced {
		c1 = r.counters()
	}
	util := r.utilization()
	var busy sim.Duration
	for _, app := range cl.Apps {
		busy += app.Node.CPU.Busy()
	}
	end()

	end = r.span("drain", "load")
	d.stopped, syncing = true, false
	cl.Faults.Quiesce()
	if err := eng.Run(); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	end()
	h1 := hostNow(eng)
	runtime.ReadMemStats(&m1)
	if o.Traced {
		pprof.StopCPUProfile()
	}
	endLoad()
	after := d.totals()

	end = r.span("verify", "rep")
	d.readBack()
	if err := eng.Run(); err != nil {
		return nil, fmt.Errorf("read-back: %w", err)
	}
	end()
	final := d.totals()
	if d.exhausted {
		return nil, fmt.Errorf("%s wrote more than its file set holds: enlarge the set or shorten the window", w.name)
	}

	// Simulated end-to-end metrics, over the window.
	res := r.res
	ops := float64(t1.ops - t0.ops)
	lat := d.latencies()
	all := append(append(append([]int64(nil), lat[clsRead]...), lat[clsWrite]...), lat[clsMeta]...)
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	res.P50Us, res.Samples = quantile(all, 0.5)/1e3, len(all)
	res.TailUs, res.TailPct = tail(all)
	res.TailUs /= 1e3
	inSLO := sort.Search(len(all), func(i int) bool { return all[i] > int64(w.slo) })
	res.Sim = map[string]float64{
		"sim_mbps":      float64(t1.bytes-t0.bytes) / window.Seconds() / 1e6,
		"sim_ops_per_s": ops / window.Seconds(),
		// A failed or refused op misses any latency limit.
		"sim_in_slo_pct":           100 * float64(inSLO) / (ops + float64(t1.failed-t0.failed)),
		"sim_server_cpu_us_per_op": float64(busy) / ops / 1e3,
	}
	res.LoadS = h1.wall.Sub(h0.wall).Seconds()
	res.LoadCPUS = (h1.cpu - h0.cpu).Seconds()
	res.LoadOps = after.ops - before.ops
	res.Events = h1.run.Events - h0.run.Events
	res.Mallocs = m1.Mallocs - m0.Mallocs
	res.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	res.Attempted = final.attempted - before.attempted
	res.Failed = final.failed - before.failed
	res.Errors = d.errors()

	if o.Traced {
		res.Layers = r.layerMetrics(layerInput{
			c: diff(c0, c1), util: util, ops: ops, lat: lat,
			h0: h0, h1: h1, gcCycles: m1.NumGC - m0.NumGC,
			summary: tr.Summary(), profile: prof.Bytes(),
		})
		if o.OutDir != "" {
			if err := r.writeTraceFiles(tr, prof.Bytes()); err != nil {
				return nil, err
			}
		}
	}
	end = r.span("close", "rep")
	cl.Close()
	end()
	return res, nil
}

// setup builds the testbed, lays out the files, resolves handles through
// the protocol and prefills the caches.
func (r *rep) setup() error {
	w, o := r.w, r.o
	endSetup := r.span("setup", "rep")
	end := r.span("build", "setup")
	mode, workers := passthru.NCache, w.workers
	if o.Original {
		mode = passthru.Original
	}
	if o.OneWorker {
		workers = 1
	}
	if (w.mix.seqRead || w.writeOnce) && workers > 0 {
		return fmt.Errorf("%s shares a cursor between streams and needs the sequential engine", w.name)
	}
	cl, err := passthru.NewCluster(w.cluster(mode, workers))
	if err != nil {
		return err
	}
	r.cl = cl
	cl.SetSynthesize(synth)
	end()

	end = r.span("format", "setup")
	fmtr, err := extfs.Format(cl.DirectAccess(), 8192)
	if err != nil {
		return err
	}
	files := make([]fileRef, w.files)
	for i := range files {
		spec, err := fmtr.AddFile(fmt.Sprintf("f%04d", i), w.fileBytes, nil)
		if err != nil {
			return err
		}
		files[i] = fileRef{name: spec.Name, startLBN: spec.StartLBN, size: spec.Size}
	}
	// One more entry, so the root directory's last block has free slots for
	// the create+remove churn: two concurrent creates that both have to
	// extend a full directory lose an entry (extfs works from a stale inode
	// copy), and a benchmark does not fix the program it measures.
	if _, err := fmtr.AddFile("spare", extfs.BlockSize, nil); err != nil {
		return err
	}
	if err := fmtr.Flush(); err != nil {
		return err
	}
	end()

	end = r.span("start", "setup")
	if err := cl.Start(); err != nil {
		return err
	}
	end()

	// One stream per (host, process, outstanding slot), host-minor so that
	// consecutive streams — and the files prefill deals them — spread over
	// hosts. Processes on a host share its route cache, as on one kernel.
	r.d = newDriver(w, files, o.Seed<<8+uint64(o.Rep))
	perHost := w.procs * w.outstanding
	if w.rate > 0 {
		perHost = 1
	}
	for k := 0; k < perHost; k++ {
		for h := 0; h < w.hosts; h++ {
			host := cl.Clients[h]
			route := func(_ nfs.FH, done func(*nfs.Client, error)) { done(host.NFS, nil) }
			if w.routed {
				if k == 0 {
					sc, err := cl.NewScaleClient(host)
					if err != nil {
						return err
					}
					r.scs = append(r.scs, sc)
				}
				route = r.scs[h].Route
			}
			r.d.addStream(host.Node.Eng, route)
		}
	}

	end = r.span("lookup", "setup")
	errs := make([]error, len(files))
	for i := range files {
		i := i
		cl.Clients[i%w.hosts].NFS.Lookup(nfs.RootFH(), files[i].name, func(fh nfs.FH, _ nfs.Attr, err error) {
			files[i].fh, errs[i] = fh, err
		})
	}
	if err := cl.Eng.Run(); err != nil {
		return err
	}
	for i, err := range errs {
		if err != nil || files[i].fh == (nfs.FH{}) {
			return fmt.Errorf("lookup %s: %v", files[i].name, err)
		}
	}
	end()

	if w.prefill {
		end = r.span("prefill", "setup")
		r.d.prefill()
		if err := cl.Eng.Run(); err != nil {
			return err
		}
		if t := r.d.totals(); t.failed > 0 {
			return fmt.Errorf("prefill: %d reads failed: %v", t.failed, r.d.errors())
		}
		end()
	}
	endSetup()
	return nil
}

// outageWindow runs the window as 24 buckets with mirror arm 1's disks
// hard-failing over buckets 4–11, and returns completions per bucket.
func (r *rep) outageWindow(window sim.Duration) ([]uint64, error) {
	const n = 24
	eng, bucket := r.cl.Eng, window/n
	t0 := eng.Now()
	spec := fmt.Sprintf("diskerr:s0m1.disk*:rate=1:start=%s:end=%s",
		time.Duration(t0+sim.Time(4*bucket)), time.Duration(t0+sim.Time(12*bucket)))
	in, err := r.cl.InstallFaults(r.o.Seed, spec)
	if err != nil {
		return nil, err
	}
	in.Arm()
	out := make([]uint64, n)
	prev := r.d.totals().ops
	for i := range out {
		if err := eng.RunFor(bucket); err != nil {
			return nil, fmt.Errorf("bucket %d: %w", i, err)
		}
		now := r.d.totals().ops
		out[i], prev = now-prev, now
		for _, a := range r.cl.App.Volume.Stats() {
			if a.State == storage.ArmResync {
				r.resyncMs += float64(bucket) / 1e6
				break
			}
		}
	}
	return out, nil
}

// resetStats restarts every utilization window at the current instant.
func (r *rep) resetStats() {
	for _, app := range r.cl.Apps {
		app.Node.CPU.ResetStats()
		for _, nic := range app.Node.NICs() {
			nic.ResetStats()
		}
	}
	for _, ss := range r.cl.Storages {
		ss.Node.CPU.ResetStats()
		for _, d := range ss.Array.Disks() {
			d.ResetStats()
		}
	}
	if r.cl.Control != nil {
		r.cl.Control.Node().CPU.ResetStats()
	}
}

// utilization samples the busiest resource of each kind at the window's
// end, before the drain dilutes it.
func (r *rep) utilization() map[string]float64 {
	u := map[string]float64{}
	raise := func(k string, v float64) {
		if v > u[k] {
			u[k] = v
		}
	}
	for _, app := range r.cl.Apps {
		raise("server_cpu", app.Node.CPU.Utilization())
		for _, nic := range app.Node.NICs() {
			raise("link", nic.TxUtilization())
		}
	}
	for _, ss := range r.cl.Storages {
		raise("storage_cpu", ss.Node.CPU.Utilization())
		for _, d := range ss.Array.Disks() {
			raise("disk", d.Utilization())
		}
	}
	if r.cl.Control != nil {
		u["cp_cpu"] = r.cl.Control.Node().CPU.Utilization()
	}
	return u
}

// hostClock is a reading of the host-side clocks and engine counters.
type hostClock struct {
	wall  time.Time
	cpu   time.Duration // process user+system time
	gcCPU float64       // seconds the runtime attributes to the GC
	run   sim.RunStats
}

// processCPU is the user and system time the process has used so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func hostNow(eng *sim.Engine) hostClock {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	h := hostClock{wall: time.Now(), cpu: processCPU(), run: eng.RunStats()}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		h.gcCPU = s[0].Value.Float64()
	}
	return h
}

// latencies merges the streams' window samples per class.
func (d *driver) latencies() (lat [numClasses + 1][]int64) {
	for _, s := range d.streams {
		for c := range s.lat {
			lat[c] = append(lat[c], s.lat[c]...)
		}
		lat[numClasses] = append(lat[numClasses], s.late...)
	}
	for c := range lat {
		sort.Slice(lat[c], func(i, j int) bool { return lat[c][i] < lat[c][j] })
	}
	return lat
}

// quantile reads quantile q of sorted samples (nearest rank), 0 if empty.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[int(q*float64(len(sorted)-1)+0.5)])
}

// tail returns the 99th percentile, or with fewer than 1000 samples the
// highest percentile that still has ten samples beyond it, and which
// percentile that was.
func tail(sorted []int64) (value, pct float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	beyond := n / 100
	if beyond < 10 {
		beyond = 10
	}
	if beyond >= n {
		beyond = n - 1
	}
	return float64(sorted[n-1-beyond]), 100 * float64(n-beyond) / float64(n)
}

func (r *rep) writeTraceFiles(tr *trace.Tracer, profile []byte) error {
	if err := os.MkdirAll(r.o.OutDir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(r.o.OutDir, "cpu-"+r.w.name+".pb.gz"), profile, 0o644); err != nil {
		return err
	}
	ct := trace.NewChromeTrace()
	ct.Add(tr)
	var buf bytes.Buffer
	if _, err := ct.WriteTo(&buf); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(r.o.OutDir, "trace-"+r.w.name+".json"), buf.Bytes(), 0o644)
}
