package bench

import (
	"fmt"
	"strings"

	"ncache/internal/extfs"
	"ncache/internal/netbuf"
	"ncache/internal/nfs"
	"ncache/internal/passthru"
	"ncache/internal/sim"
	"ncache/internal/trace"
	"ncache/internal/workload"
)

// ScaleoutCounts is the server-count sweep of the -exp scaleout experiment.
var ScaleoutCounts = []int{1, 2, 4, 8}

// ScaleoutTargets is the iSCSI shard count every sweep point runs over.
const ScaleoutTargets = 2

// scaleoutFlushPeriod paces the per-server background Cache.Sync that
// drives FHO→LBN re-indexing (and thus remap/invalidate traffic) during
// the measurement window.
const scaleoutFlushPeriod = 40 * sim.Millisecond

// ScaleoutPoint is one measured server count of the scale-out sweep. All
// fields are plain scalars so seed-replay tests can compare points with
// reflect.DeepEqual.
type ScaleoutPoint struct {
	Servers int
	Targets int
	// Streams is the number of concurrent closed-loop request streams
	// (hosts × client processes × workers per process).
	Streams       int
	ThroughputMBs float64
	OpsPerSec     float64
	ReadP99Us     float64
	WriteP99Us    float64
	// ServerCPUMax is the hottest front-end server's utilization and
	// ServerCPUMean the servers' average, so max/mean is the placement's
	// imbalance; ControlCPU is the control-plane node's (0 on one server).
	ServerCPUMax  float64
	ServerCPUMean float64
	ControlCPU    float64
	LinkUtil      float64
	Errors        uint64
	RouteErrors   uint64
	// TargetWrites counts, per iSCSI target, the lower writes every server
	// issued to it over the whole run (storage.Sharded.Stats, one arm per
	// target): the storage placement's split.
	TargetWrites [ScaleoutTargets]uint64
	// Control-plane activity over the whole run.
	RemapsStarted   uint64
	RemapsSent      uint64
	RemapRetries    uint64
	RemapsAbandoned uint64
	// LBNsAnnounced counts the remapped blocks whose announcement was
	// acknowledged; per RemapsSent message it is how much the agents batched.
	LBNsAnnounced uint64
	InvalsApplied uint64
	// Recovery activity over the whole run: datagram RPC calls resent by
	// the routed clients and replies to calls already completed
	// (Cluster.FaultCounters), TCP segments resent and the timeouts that
	// resent them (Cluster.TCPCounters; TCP carries the servers' iSCSI).
	RPCRetransmits uint64
	DupReplies     uint64
	TCPRetransmits uint64
	TCPRTOs        uint64
	// PendingCalls counts the routed clients' RPC calls still outstanding
	// after the post-window drain: a call neither answered nor failed.
	PendingCalls int
	// SimEvents is this point's executed-event count over the whole run — a
	// pure function of the schedule, so replay suites compare it.
	SimEvents uint64
}

// scaleout sweeps the pass-through cluster across ScaleoutCounts front-end
// servers over ScaleoutTargets shards, reporting aggregate throughput and
// latency per server count (the scale-out figure).
func scaleout(h *harness) ([]ScaleoutPoint, error) {
	return scaleoutCounts(h, ScaleoutCounts)
}

// scaleoutCounts runs the sweep over an explicit server-count list (tests
// use small lists at short windows).
func scaleoutCounts(h *harness, counts []int) ([]ScaleoutPoint, error) {
	var out []ScaleoutPoint
	for _, n := range counts {
		p, err := scaleoutPoint(h, n, ScaleoutTargets)
		if err != nil {
			return nil, fmt.Errorf("scaleout %d servers: %w", n, err)
		}
		out = append(out, p)
	}
	return out, nil
}

// scaleoutPoint measures one (server count, target count) topology: a
// hot-set read/write mix routed per file handle through each client host's
// placement replica, with client population scaled with the server
// count (the paper's scale-out methodology: offered load grows with the
// tier, so a flat curve means the tier does not scale).
func scaleoutPoint(h *harness, servers, targets int) (ScaleoutPoint, error) {
	opt := h.opt
	hosts := 2 * servers
	procsPerHost := 32 / opt.Scale
	if procsPerHost < 1 {
		procsPerHost = 1
	}
	const (
		reqSize   = 16 * 1024
		writeSize = 8 * 1024
		writePct  = 10
	)
	// The hot set grows with the tier (8 files per server) and shrinks with
	// Options.Scale so short test windows still reach cache steady state.
	fileSize := uint64(1<<20) / uint64(opt.Scale)
	if fileSize < 64*1024 {
		fileSize = 64 * 1024
	}
	numFiles := 8 * servers
	fileBlocks := int64(fileSize / extfs.BlockSize)
	names := make([]string, numFiles)
	cl, err := h.build(h.withFaults(passthru.ClusterConfig{
		Mode:          passthru.NCache,
		NumServers:    servers,
		NumTargets:    targets,
		NumClients:    hosts,
		BlocksPerDisk: int64(numFiles)*fileBlocks + 8192,
		FSCacheBlocks: 4096,
		NCacheBytes:   64 << 20,
		// Clients reach the testbed over a LAN hop, not a fabric port:
		// 50µs of access latency (vs the 5µs switch) is the paper's
		// client RTT scale. The control-plane node sits on the same LAN
		// tier — it is management traffic whose resends start at 10 ms,
		// not data path.
		ClientLinkLatency:  50 * sim.Microsecond,
		ControlLinkLatency: 50 * sim.Microsecond,
	}), func(f *extfs.Formatter) error {
		for i := range names {
			names[i] = fmt.Sprintf("hot%03d", i)
			if _, err := f.AddFile(names[i], fileSize, nil); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return ScaleoutPoint{}, err
	}
	files := make([]nfs.FH, numFiles)
	for i, name := range names {
		if files[i], err = lookupFH(cl, i%hosts, name); err != nil {
			return ScaleoutPoint{}, err
		}
	}

	// One routed client set per host, shared by every simulated client
	// process on the host, as processes on one machine share the kernel's.
	scs := make([]*passthru.ScaleClient, hosts)
	var routes []workload.RouteFn
	for i := range scs {
		if scs[i], err = cl.NewScaleClient(cl.Clients[i]); err != nil {
			return ScaleoutPoint{}, err
		}
		for p := 0; p < procsPerHost; p++ {
			routes = append(routes, scs[i].Route)
		}
	}

	// Warm every file through its owning server (one routed sequential pass
	// per file, spread across hosts) so the measured window starts from
	// cache steady state on every topology.
	if err := prefillRouted(cl, scs, files, fileSize, reqSize); err != nil {
		return ScaleoutPoint{}, err
	}

	load := &workload.RoutedMixLoad{
		Routes:      routes,
		Files:       files,
		FileSize:    fileSize,
		RequestSize: reqSize,
		WriteSize:   writeSize,
		WritePct:    writePct,
		Concurrency: opt.Concurrency,
		Seed:        0x5ca1e0a7,
	}
	tr := trace.NewTracer(cl.Eng, fmt.Sprintf("scaleout/%dsrv", servers))
	tr.SetKeepSpans(opt.Chrome != nil)
	load.SetTracer(tr)

	// Background flushers: every server syncs its dirty buffer cache on a
	// staggered period, so dirty FHO-indexed blocks get written out (and
	// re-indexed by LBN) while the window runs — the remap protocol is on
	// the measured path, not just an idle-time cleanup.
	flushing := true
	eng := cl.Eng
	for i, app := range cl.Apps {
		app := app
		var tick func()
		tick = func() {
			if !flushing {
				return
			}
			app.Cache.Sync(func(error) {})
			eng.Schedule(scaleoutFlushPeriod, tick)
		}
		eng.Schedule(scaleoutFlushPeriod+sim.Duration(i)*sim.Millisecond, tick)
	}

	// Stop the flushers at the window's end so the post-window drain
	// terminates.
	var cpuSum float64
	w, err := h.measure(cl, load, tr, nil, func() {
		flushing = false
		for _, app := range cl.Apps {
			cpuSum += app.Node.CPU.Utilization()
		}
	})
	if err != nil {
		return ScaleoutPoint{}, err
	}
	p := ScaleoutPoint{
		Servers:       servers,
		Targets:       targets,
		Streams:       len(routes) * opt.Concurrency,
		ThroughputMBs: w.Throughput() / 1e6,
		OpsPerSec:     w.OpsPerSec(),
		ServerCPUMax:  w.ServerCPU,
		ServerCPUMean: cpuSum / float64(len(cl.Apps)),
		ControlCPU:    w.ControlCPU,
		LinkUtil:      w.LinkUtil,
		Errors:        w.Errors,
	}
	p.RouteErrors = load.RouteErrors()
	sum := tr.Summary()
	p.ReadP99Us, p.WriteP99Us = opP99Us(sum, "read"), opP99Us(sum, "write")
	if cl.Control != nil {
		p.RemapsStarted = cl.Control.Stats.RemapsStarted
	}
	for _, app := range cl.Apps {
		for t, st := range app.Volume.Stats() {
			p.TargetWrites[t] += st.Writes
		}
		if app.Agent != nil {
			p.RemapsSent += app.Agent.Stats.RemapsSent
			p.RemapRetries += app.Agent.Stats.RemapRetries
			p.RemapsAbandoned += app.Agent.Stats.RemapsAbandoned
			p.LBNsAnnounced += app.Agent.Stats.LBNsAnnounced
			p.InvalsApplied += app.Agent.Stats.InvalidationsApplied
		}
	}
	for _, sc := range scs {
		for _, nc := range sc.NFS {
			p.PendingCalls += nc.DatagramRPC().Pending()
		}
	}
	p.RPCRetransmits, _, p.DupReplies, _ = cl.FaultCounters()
	p.TCPRetransmits, p.TCPRTOs, _, _, _ = cl.TCPCounters()
	p.SimEvents = cl.Eng.Processed()
	opt.Chrome.Add(tr)
	return p, nil
}

// prefillRouted streams every file once through its owning server.
func prefillRouted(cl *passthru.Cluster, scs []*passthru.ScaleClient, files []nfs.FH, fileSize uint64, reqSize int) error {
	pending := len(files)
	var werr error
	fileDone := func(err error) {
		if err != nil && werr == nil {
			werr = err
		}
		pending--
	}
	for i, fh := range files {
		fh := fh
		sc := scs[i%len(scs)]
		sc.Route(fh, func(c *nfs.Client, err error) {
			if err != nil {
				fileDone(err)
				return
			}
			off := uint64(0)
			var step func()
			step = func() {
				if off >= fileSize {
					fileDone(nil)
					return
				}
				o := off
				off += uint64(reqSize)
				c.Read(fh, o, reqSize, func(data *netbuf.Chain, _ nfs.Attr, err error) {
					if data != nil {
						data.Release()
					}
					if err != nil {
						fileDone(err)
						return
					}
					step()
				})
			}
			step()
		})
	}
	if err := cl.Eng.Run(); err != nil {
		return err
	}
	if werr != nil {
		return fmt.Errorf("scaleout prefill: %w", werr)
	}
	if pending != 0 {
		return fmt.Errorf("scaleout prefill: %d files did not complete", pending)
	}
	return nil
}

// FormatScaleoutPoints renders the scale-out figure: aggregate throughput
// and tail latency vs front-end server count, with speedup relative to the
// one-server run and the hottest (srvCPU) beside the mean (srvMean) server
// CPU, the control-plane activity that kept the tier coherent while it
// scaled, the lower writes each target took (tgtWr), and what every
// retransmission timer resent: with errs 0, rpcRtx and tcpRtx are the faults
// that were recovered below the clients, dupRx and tcpRTO on a lossless run
// the resends nothing needed.
func FormatScaleoutPoints(points []ScaleoutPoint) string {
	var base float64
	for _, p := range points {
		if p.Servers == 1 {
			base = p.ThroughputMBs
		}
	}
	var b strings.Builder
	b.WriteString("fig-scaleout: pass-through tier scale-out (hot-set mix, 10% writes, routed clients)\n")
	fmt.Fprintf(&b, "%-7s %-7s %7s %9s %9s %7s %9s %10s %6s %7s %6s %5s\n",
		"servers", "targets", "streams", "MB/s", "ops/s", "speedup",
		"read_p99", "write_p99", "srvCPU", "srvMean", "cpCPU", "errs")
	for _, p := range points {
		speedup := ""
		if base > 0 {
			speedup = fmt.Sprintf("%.2fx", p.ThroughputMBs/base)
		}
		fmt.Fprintf(&b, "%-7d %-7d %7d %9.1f %9.0f %7s %7.1fµs %8.1fµs %5.0f%% %6.0f%% %5.0f%% %5d\n",
			p.Servers, p.Targets, p.Streams, p.ThroughputMBs, p.OpsPerSec, speedup,
			p.ReadP99Us, p.WriteP99Us, 100*p.ServerCPUMax, 100*p.ServerCPUMean, 100*p.ControlCPU,
			p.Errors+p.RouteErrors)
	}
	b.WriteString("\ncontrol-plane and recovery activity (whole run):\n")
	fmt.Fprintf(&b, "%-7s %7s %7s %8s %8s %8s %7s %7s %7s %7s %13s\n",
		"servers", "remaps", "sent", "lbns/msg", "retries", "invals",
		"rpcRtx", "dupRx", "tcpRtx", "tcpRTO", "tgtWr")
	for _, p := range points {
		var perMsg float64
		if p.RemapsSent > 0 {
			perMsg = float64(p.LBNsAnnounced) / float64(p.RemapsSent)
		}
		wr := make([]string, len(p.TargetWrites))
		for t, n := range p.TargetWrites {
			wr[t] = fmt.Sprint(n)
		}
		fmt.Fprintf(&b, "%-7d %7d %7d %8.1f %8d %8d %7d %7d %7d %7d %13s\n",
			p.Servers, p.RemapsStarted, p.RemapsSent, perMsg,
			p.RemapRetries, p.InvalsApplied,
			p.RPCRetransmits, p.DupReplies, p.TCPRetransmits, p.TCPRTOs,
			strings.Join(wr, "/"))
	}
	return b.String()
}
