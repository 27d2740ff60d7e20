// Package bench is the experiment harness: a registry (registry.go) of one
// runner per table and figure of the paper's evaluation (§5) and per
// extension, each building fresh simulated testbeds through one harness
// (build), driving the paper's workload through one measurement loop
// (measure: warm-up, then a steady-state window), and reporting the same
// quantities the paper plots as a Result.
package bench

import (
	"encoding/binary"
	"fmt"
	"math"

	"ncache/internal/extfs"
	"ncache/internal/fault"
	"ncache/internal/metrics"
	"ncache/internal/nfs"
	"ncache/internal/passthru"
	"ncache/internal/sim"
	"ncache/internal/trace"
	"ncache/internal/workload"
)

// Options tune experiment duration and scale. Zero values select defaults
// suitable for `go test -bench`; cmd/ncbench raises them for full runs.
type Options struct {
	// Warmup and Window bound the measured steady state (virtual time).
	Warmup sim.Duration
	Window sim.Duration
	// Concurrency is the number of outstanding requests per client host
	// (the paper tunes the NFS daemon count the same way).
	Concurrency int
	// Scale divides the paper's memory-hungry parameters (working sets,
	// cache sizes) to keep host memory bounded. 4 reproduces the curve
	// shapes at quarter scale; 1 is full scale.
	Scale int
	// Latency enables per-request span tracing: each NFS point carries a
	// latency-percentile summary with per-layer attribution.
	Latency bool
	// Chrome, when non-nil, retains every traced run's spans for a
	// combined chrome://tracing export. Implies Latency-style tracing.
	Chrome *trace.ChromeTrace
	// FaultSpec injects a deterministic fault schedule (fault.ParseSpec
	// grammar or a preset name) into every cluster of the NFS experiments
	// (fig4, fig5a/b, transport, scaleout; fig-fault, fig-fault-sweep and
	// fig-avail install their own); FaultSeed selects the replayable
	// streams (zero means seed 1).
	FaultSpec string
	FaultSeed uint64
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.Warmup == 0 {
		o.Warmup = 150 * sim.Millisecond
	}
	if o.Window == 0 {
		o.Window = 600 * sim.Millisecond
	}
	if o.Concurrency == 0 {
		o.Concurrency = 8
	}
	if o.Scale == 0 {
		o.Scale = 4
	}
	return o
}

// Modes lists the three configurations every experiment compares.
var Modes = []passthru.Mode{passthru.Original, passthru.NCache, passthru.Baseline}

// NFSPoint is one measured point of an NFS experiment.
type NFSPoint struct {
	window
	Mode  passthru.Mode
	ReqKB int
}

// WebPoint is one measured point of a kHTTPd experiment.
type WebPoint struct {
	window
	Mode    passthru.Mode
	ParamKB int // request size (6b) or working set in MB (6a)
}

// SFSPoint is one measured point of the SFS experiment.
type SFSPoint struct {
	window
	Mode           passthru.Mode
	RegularDataPct int
}

// synthContent is the deterministic block-content function used for
// storage-free multi-hundred-megabyte file sets: an xorshift stream, one
// little-endian word per step, the last word cut to the tail.
func synthContent(lbn int64, dst []byte) {
	v := uint64(lbn)*0x9e3779b97f4a7c15 + 12345
	for i := 0; i < len(dst); i += 8 {
		v ^= v << 13
		v ^= v >> 7
		v ^= v << 17
		if i+8 <= len(dst) {
			binary.LittleEndian.PutUint64(dst[i:], v)
			continue
		}
		for j := range dst[i:] {
			dst[i+j] = byte(v >> (8 * j))
		}
	}
}

// sweep measures one point per (mode, parameter), modes outermost — the
// shape of every paper figure.
func sweep[P any](what string, params []int, point func(passthru.Mode, int) (P, error)) ([]P, error) {
	var out []P
	for _, mode := range Modes {
		for _, v := range params {
			p, err := point(mode, v)
			if err != nil {
				return nil, fmt.Errorf("%s %s %d: %w", what, mode, v, err)
			}
			out = append(out, p)
		}
	}
	return out, nil
}

// harness is one experiment run: the options with defaults applied, the
// cluster currently alive (experiments measure one testbed at a time, so
// building the next retires the previous), and the clusters the run built
// and the events they executed, counted as each retires.
type harness struct {
	opt      Options // defaults applied
	cl       *passthru.Cluster
	clusters int
	events   uint64
}

func newHarness(opt Options) *harness { return &harness{opt: opt.withDefaults()} }

// build retires the previous cluster, then creates, formats and starts the
// next; layout adds files.
func (h *harness) build(cfg passthru.ClusterConfig, layout func(*extfs.Formatter) error) (*passthru.Cluster, error) {
	h.retire()
	cl, err := passthru.NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	h.cl = cl
	cl.SetSynthesize(synthContent)
	fmtr, err := extfs.Format(cl.DirectAccess(), 8192)
	if err != nil {
		return nil, err
	}
	if err := layout(fmtr); err != nil {
		return nil, err
	}
	if err := fmtr.Flush(); err != nil {
		return nil, err
	}
	if err := cl.Start(); err != nil {
		return nil, err
	}
	return cl, nil
}

// retire folds the live cluster and its event count into the run's tally.
func (h *harness) retire() {
	if h.cl != nil {
		h.clusters++
		h.events += h.cl.Eng.Processed()
		h.cl = nil
	}
}

// withFaults wires the run's fault schedule into a cluster config.
func (h *harness) withFaults(cfg passthru.ClusterConfig) passthru.ClusterConfig {
	cfg.FaultSpec, cfg.FaultSeed = h.opt.FaultSpec, h.opt.FaultSeed
	return cfg
}

// resetClusterStats restarts all measurement windows at the current instant.
func resetClusterStats(cl *passthru.Cluster) {
	for _, app := range cl.Apps {
		app.Node.CPU.ResetStats()
		for _, nic := range app.Node.NICs() {
			nic.ResetStats()
		}
		if app.Cache != nil {
			app.Cache.Stats = metrics.Cache{}
		}
	}
	for _, storage := range cl.Storages {
		storage.Node.CPU.ResetStats()
		for _, d := range storage.Array.Disks() {
			d.ResetStats()
		}
	}
	if cl.Control != nil {
		cl.Control.Node().CPU.ResetStats()
	}
}

// window is one measured steady-state window, the record every
// experiment's point embeds: the load's completions and the cluster's
// utilization over exactly that window, the tracer's summary of it, and
// the recovery activity of the whole run.
type window struct {
	// Ops and Errors count the window's completed and failed operations;
	// ThroughputMBs and OpsPerSec are its service rates.
	Ops, Errors              uint64
	ThroughputMBs, OpsPerSec float64
	// ServerCPU is the hottest front-end server's utilization and
	// ServerCPUMean the servers' average, StorageCPU the first target's,
	// ControlCPU the control-plane node's (0 without one); LinkUtil is the
	// busiest server NIC's transmit utilization and HitRatio the first
	// server's buffer-cache hit ratio.
	ServerCPU, ServerCPUMean, StorageCPU, ControlCPU float64
	LinkUtil, HitRatio                               float64
	// Lat is the window's latency summary (nil when the run is untraced).
	Lat *trace.Summary
	// Recovery activity over the whole run, read after the drain: RPC
	// calls resent, abandoned and answered twice and iSCSI command retries
	// (Cluster.FaultCounters); TCP segments resent, RTO firings and fast
	// retransmits across all nodes (Cluster.TCPCounters; iSCSI always
	// rides TCP, NFS when the run dials stream clients); and the
	// injector's per-schedule tallies (nil without one).
	RPCRetransmits, RPCTimeouts, DupReplies, ISCSIRetries uint64
	TCPRetransmits, TCPRTOs, TCPFastRtx                   uint64
	FaultReport                                           []fault.ScheduleReport
}

// drainBound caps measure's drain in simulated time, so a loop that never
// quiesces fails the run instead of spinning: about 43 times the longest
// committed drain (234.3 ms, fig-writeback). Setup drains under await run up
// to 16.3 s, so the engine cannot hold this bound itself (DESIGN.md §4b).
const drainBound = 10 * sim.Second

// measure is the one measurement loop: arm fault injection, start the load,
// warm up, zero every counter, run the window as buckets equal spans, sample
// utilization, then stop and drain, and read the tracer's summary and the
// recovery counters. Injection starts with the load (setup ran fault-free)
// and stops before the drain, so in-flight recovery completes and the event
// loop terminates, within drainBound; the tracer (nil-safe) is frozen there
// too, keeping late completions out of the window. A drain past the bound
// fails the run, naming the handler most of the queue runs; so does a quiet
// engine with a load op or an iSCSI command unanswered, and a run without
// faults that lost a datagram (Cluster.DatagramLosses): the client's
// checksum is the one check on the bytes a reply carries. atStart (nil-safe) runs as
// the window opens and atEdge (nil-safe) at the end of each bucket, with its
// index, for experiments that sample something of their own.
func (h *harness) measure(cl *passthru.Cluster, load workload.Load, tr *trace.Tracer, buckets int, atStart func(), atEdge func(int)) (window, error) {
	var w window
	cl.Faults.Arm()
	load.Start()
	cl.Eng.RunFor(h.opt.Warmup)
	ops0, bytes0, errs0 := load.Counters()
	resetClusterStats(cl)
	tr.ResetStats()
	if atStart != nil {
		atStart()
	}
	bucket := h.opt.Window / sim.Duration(buckets)
	for i := 0; i < buckets; i++ {
		cl.Eng.RunFor(bucket)
		if atEdge != nil {
			atEdge(i)
		}
	}
	ops1, bytes1, errs1 := load.Counters()
	var cpuSum float64
	for _, app := range cl.Apps {
		cpu := app.Node.CPU.Utilization()
		w.ServerCPU = math.Max(w.ServerCPU, cpu)
		cpuSum += cpu
		for _, nic := range app.Node.NICs() {
			w.LinkUtil = math.Max(w.LinkUtil, nic.TxUtilization())
		}
	}
	w.ServerCPUMean = cpuSum / float64(len(cl.Apps))
	w.StorageCPU = cl.Storage.Node.CPU.Utilization()
	if cl.Control != nil {
		w.ControlCPU = cl.Control.Node().CPU.Utilization()
	}
	if cl.App.Cache != nil {
		w.HitRatio = cl.App.Cache.Stats.HitRatio()
	}
	tr.Freeze()
	cl.Faults.Quiesce()
	load.Stop()
	stop := cl.Eng.Now()
	cl.Eng.RunUntil(stop.Add(drainBound))
	if n := cl.Eng.Pending(); n > 0 {
		name, k := cl.Eng.Busiest()
		return w, fmt.Errorf("drain: %d events still queued at %v, %v after the load stopped at %v; %d of them run %s", n, cl.Eng.Now(), drainBound, stop, k, name)
	}
	if n := load.Outstanding(); n > 0 {
		return w, fmt.Errorf("drain: the engine is quiet with %d ops neither completed nor failed", n)
	}
	for _, app := range cl.Apps {
		for _, ini := range app.Initiators {
			if n := ini.Pending(); n > 0 {
				return w, fmt.Errorf("drain: the engine is quiet with %d iSCSI commands of %s unanswered", n, app.Node.Name)
			}
		}
	}
	if cl.Faults == nil {
		if bad, dropped := cl.DatagramLosses(); bad+dropped > 0 {
			return w, fmt.Errorf("a run without faults lost datagrams: %d failed their UDP checksum, %d were abandoned in reassembly", bad, dropped)
		}
	}
	secs := (bucket * sim.Duration(buckets)).Seconds()
	w.Ops, w.Errors = ops1-ops0, errs1-errs0
	w.ThroughputMBs, w.OpsPerSec = float64(bytes1-bytes0)/secs/1e6, float64(w.Ops)/secs
	w.Lat = tr.Summary()
	w.RPCRetransmits, w.RPCTimeouts, w.DupReplies, w.ISCSIRetries = cl.FaultCounters()
	w.TCPRetransmits, w.TCPRTOs, w.TCPFastRtx, _, _ = cl.TCPCounters()
	if cl.Faults != nil {
		w.FaultReport = cl.Faults.Report()
	}
	return w, nil
}

// pending is the setup calls issued under await: what each one is ("" once
// it has completed), and the first error one completed with.
type pending struct {
	calls []string
	err   error
}

// expect registers a call and returns its completion.
func (p *pending) expect(what string) func(error) {
	i := len(p.calls)
	p.calls = append(p.calls, what)
	return func(err error) {
		p.calls[i] = ""
		if err != nil && p.err == nil {
			p.err = fmt.Errorf("%s: %w", what, err)
		}
	}
}

// await is the one way setup drives asynchronous calls to completion: issue
// starts them, taking one completion per call from p.expect (a completion
// may issue the next call); await then runs the engine dry and returns the
// first error a call completed with, else an error naming the first call
// that never completed.
func await(eng *sim.Engine, issue func(p *pending)) error {
	var p pending
	issue(&p)
	eng.Run()
	if p.err != nil {
		return p.err
	}
	for _, what := range p.calls {
		if what != "" {
			return fmt.Errorf("bench: %s did not complete", what)
		}
	}
	return nil
}

// nfsClients lists each host's mounted datagram client (the paper's NFS
// transport).
func nfsClients(cl *passthru.Cluster) []*nfs.Client {
	clients := make([]*nfs.Client, 0, len(cl.Clients))
	for _, h := range cl.Clients {
		clients = append(clients, h.NFS)
	}
	return clients
}

// lookupFH resolves a file handle.
func lookupFH(cl *passthru.Cluster, host int, name string) (fh nfs.FH, err error) {
	err = await(cl.Eng, func(p *pending) {
		done := p.expect("lookup " + name)
		cl.Clients[host].NFS.Lookup(nfs.RootFH(), name, func(h nfs.FH, _ nfs.Attr, err error) {
			fh = h
			done(err)
		})
	})
	return fh, err
}

// prefill streams a file through the server once so the measured window
// starts from cache steady state (the paper's "repetitively access" loads
// run long enough to converge; the DES warms deterministically instead).
func prefill(cl *passthru.Cluster, fh nfs.FH, size uint64) error {
	const step = 32 * 1024
	tr := workload.GenSequentialRead(fh, size, step)
	if size%step != 0 {
		tr.Ops = append(tr.Ops, workload.TraceOp{
			Kind: workload.OpRead,
			Off:  size - size%step,
			Len:  int(size % step),
		})
	}
	return playTrace(cl, tr, []*nfs.Client{cl.Clients[0].NFS}, 4)
}

// playTrace replays a trace to completion.
func playTrace(cl *passthru.Cluster, tr workload.Trace, clients []*nfs.Client, concurrency int) error {
	return await(cl.Eng, func(p *pending) {
		done := p.expect("trace replay")
		player := &workload.TracePlayer{Clients: clients, Trace: tr, Concurrency: concurrency}
		player.Done = func() {
			var err error
			if _, _, errs := player.Counters(); errs > 0 {
				err = fmt.Errorf("%d errors", errs)
			}
			done(err)
		}
		player.Start()
	})
}

// missRig builds the all-miss testbed — one file of fileBlocks blocks, far
// larger than the 32 MB FS cache, streamed sequentially at reqKB — on the
// given topology (mode, mirror arms, write-back, faults). tweak (nil-safe)
// adjusts the started cluster before the first request.
func (h *harness) missRig(cfg passthru.ClusterConfig, fileBlocks int64, reqKB int, tweak func(*passthru.Cluster)) (*passthru.Cluster, *workload.NFSReadLoad, error) {
	cfg.BlocksPerDisk = fileBlocks/4 + 8192
	cfg.FSCacheBlocks = 8192   // 32 MB: all-miss regardless of mode
	cfg.NCacheBytes = 64 << 20 // misses don't reuse it; keep memory low
	cl, err := h.build(cfg, func(f *extfs.Formatter) error {
		_, err := f.AddFile("bigfile", uint64(fileBlocks)*extfs.BlockSize, nil)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	if tweak != nil {
		tweak(cl)
	}
	fh, err := lookupFH(cl, 0, "bigfile")
	if err != nil {
		return nil, nil, err
	}
	return cl, &workload.NFSReadLoad{
		Clients:     nfsClients(cl),
		FH:          fh,
		FileSize:    uint64(fileBlocks) * extfs.BlockSize,
		RequestSize: reqKB * 1024,
		Pattern:     workload.Sequential,
		Concurrency: h.opt.Concurrency,
	}, nil
}

// hitRig builds the all-hit testbed — the paper's 5 MB hot file, prefetched
// so the 32 MB FS cache always holds it, read at random reqKB offsets; tweak
// as for missRig.
func (h *harness) hitRig(cfg passthru.ClusterConfig, reqKB int, tweak func(*passthru.Cluster)) (*passthru.Cluster, *workload.NFSReadLoad, error) {
	const hotBytes = 5 << 20
	cfg.BlocksPerDisk = 16 * 1024
	cfg.FSCacheBlocks = 8192
	cfg.NCacheBytes = 64 << 20
	cl, err := h.build(cfg, func(f *extfs.Formatter) error {
		_, err := f.AddFile("hotfile", hotBytes, nil)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	if tweak != nil {
		tweak(cl)
	}
	fh, err := lookupFH(cl, 0, "hotfile")
	if err != nil {
		return nil, nil, err
	}
	if err := prefill(cl, fh, hotBytes); err != nil {
		return nil, nil, err
	}
	return cl, &workload.NFSReadLoad{
		Clients:     nfsClients(cl),
		FH:          fh,
		FileSize:    hotBytes,
		RequestSize: reqKB * 1024,
		Pattern:     workload.HotSet,
		Concurrency: h.opt.Concurrency,
	}, nil
}

// nfsPoint measures one NFS micro-benchmark point, traced when the run asks
// for latency.
func (h *harness) nfsPoint(cl *passthru.Cluster, load *workload.NFSReadLoad) (NFSPoint, error) {
	reqKB := load.RequestSize / 1024
	var tr *trace.Tracer
	if h.opt.Latency || h.opt.Chrome != nil {
		tr = trace.NewTracer(cl.Eng, fmt.Sprintf("%s/%dKB", cl.App.Mode, reqKB))
		tr.SetKeepSpans(h.opt.Chrome != nil)
		load.SetTracer(tr)
	}
	w, err := h.measure(cl, load, tr, 1, nil, nil)
	if err != nil {
		return NFSPoint{}, err
	}
	h.opt.Chrome.Add(tr)
	return NFSPoint{window: w, Mode: cl.App.Mode, ReqKB: reqKB}, nil
}
