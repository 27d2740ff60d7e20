package main

import (
	"runtime"

	"ncache/internal/extfs"
	"ncache/internal/passthru"
	"ncache/internal/sim"
)

// mix describes what a workload's streams issue. Every draw comes from the
// stream's own generator, so an operation sequence depends on (seed,
// workload, stream) only.
type mix struct {
	// dataPct is the share of operations that touch regular data; the rest
	// are metadata (getattr/lookup/readdir/create+remove at 45/35/10/10).
	dataPct int
	// writeFrac is the share of data operations that are writes.
	writeFrac float64
	// readSize/writeSize fix the request size; 0 draws from the SPECsfs
	// size distribution (4/8/16/32 KB at 60/25/10/5).
	readSize, writeSize int
	// seqRead makes reads one sequential scan of file 0 shared by all
	// streams; otherwise reads pick a uniformly random file and aligned
	// offset.
	seqRead bool
}

// workload is one named input of the benchmark. The table below is the
// whole definition; ISSUE 11 and benchmarks/README.md give the reasons.
type workload struct {
	name string
	// input names the operation streams when it is not the workload's own
	// name: workloads with one input draw byte-for-byte the same operations
	// on the same seed.
	input string
	// cluster sizes the testbed for a mode and an engine worker count.
	cluster func(mode passthru.Mode, workers int) passthru.ClusterConfig
	// files × fileBytes is the file set; prefill reads it once through the
	// servers before the load starts.
	files     int
	fileBytes uint64
	prefill   bool
	// Closed loop: hosts × procs × outstanding streams, each re-issuing on
	// completion. Open loop (rate > 0): one arrival process per host with
	// exponential gaps, rate ops/s in aggregate, at most maxOut outstanding.
	hosts, procs, outstanding int
	rate                      float64
	maxOut                    int
	// routed sends every operation through a ScaleClient's control-plane
	// route; syncEvery runs a background Cache.Sync on every server.
	routed    bool
	syncEvery sim.Duration
	// writeOnce hands each write a block no write of this run has touched.
	// The write-back pipeline loses an acked overwrite that lands while the
	// block's previous flush is in flight (buffercache marks the block clean
	// when the old flush completes); streams convoy at the admission gate,
	// so a few free-running ones would lap any per-stream share and hit it.
	// Read-back found this; the benchmark steers around it, it cannot fix it.
	writeOnce bool
	// outage injects diskerr on mirror arm 1 over buckets 4–11 of 24.
	outage bool
	// workers picks the engine: 0 the sequential one, else sharded.
	workers int
	warmup  sim.Duration
	window  sim.Duration
	// slo is the workload's latency limit: sim_in_slo_pct is the share of
	// operations that complete correctly within it. Each sits in a sparse
	// stretch of the workload's latency distribution, beyond the healthy
	// p99, so the share moves when a tail grows and not when a mode shifts.
	slo sim.Duration
	mix mix
	// gainMetric is the end-to-end metric the Original-mode reference arm
	// compares ("" = no reference arm); paperGain is the paper's figure.
	gainMetric string
	paperGain  string
}

const (
	sfsFiles     = 256
	sfsFileBytes = 200 * 1024 // fig7's 800 KB at memory scale 4
	sfsBlocks    = sfsFiles * sfsFileBytes / extfs.BlockSize
	missBlocks   = 96 * 1024 // 384 MB, far beyond both caches
	outageBlocks = missBlocks / 4
	soFiles      = 32
	soFileBytes  = 256 * 1024
)

// parWorkers is scaleout-par's worker count, recorded in the output.
func parWorkers() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

func sfsCluster(wb bool) func(passthru.Mode, int) passthru.ClusterConfig {
	return func(mode passthru.Mode, workers int) passthru.ClusterConfig {
		cfg := passthru.ClusterConfig{
			Mode:          mode,
			NumClients:    2,
			BlocksPerDisk: sfsBlocks/4 + 16384,
			// The set is cache-resident: in the FS cache on the Original
			// arm, in NCache behind a small FS cache on the NCache arm.
			FSCacheBlocks: sfsBlocks + 8192,
			NCacheBytes:   sfsBlocks*extfs.BlockSize*3/2 + 64<<20,
			Workers:       workers,
			Writeback:     passthru.WritebackConfig{Enabled: wb},
		}
		if mode == passthru.NCache {
			cfg.FSCacheBlocks = 4096
		}
		return cfg
	}
}

func scaleoutCluster(mode passthru.Mode, workers int) passthru.ClusterConfig {
	return passthru.ClusterConfig{
		Mode:               mode,
		NumServers:         4,
		NumTargets:         2,
		NumClients:         8,
		BlocksPerDisk:      soFiles*soFileBytes/extfs.BlockSize + 8192,
		FSCacheBlocks:      4096,
		NCacheBytes:        64 << 20,
		ClientLinkLatency:  50 * sim.Microsecond,
		ControlLinkLatency: 50 * sim.Microsecond,
		Workers:            workers,
	}
}

var scaleout = workload{
	input:   "scaleout",
	cluster: scaleoutCluster,
	files:   soFiles, fileBytes: soFileBytes, prefill: true,
	hosts: 8, procs: 8, outstanding: 8,
	routed: true, syncEvery: 40 * sim.Millisecond,
	warmup: 150 * sim.Millisecond, window: 200 * sim.Millisecond, slo: 100 * sim.Millisecond,
	mix: mix{dataPct: 100, writeFrac: 0.10, readSize: 16 << 10, writeSize: 8 << 10},
}

func scaleoutOn(name string, workers int) workload {
	w := scaleout
	w.name, w.workers = name, workers
	return w
}

var workloads = []workload{
	{
		name: "nfs-hit",
		cluster: func(mode passthru.Mode, workers int) passthru.ClusterConfig {
			return passthru.ClusterConfig{
				Mode: mode, ServerNICs: 2, NumClients: 2,
				BlocksPerDisk: 16 * 1024, FSCacheBlocks: 8192, NCacheBytes: 64 << 20,
				Workers: workers,
			}
		},
		files: 1, fileBytes: 5 << 20, prefill: true,
		hosts: 2, procs: 1, outstanding: 8,
		warmup: 150 * sim.Millisecond, window: sim.Second, slo: 5 * sim.Millisecond,
		mix:        mix{dataPct: 100, readSize: 32 << 10},
		gainMetric: "sim_mbps", paperGain: "+92% (Fig. 5(b), 32 KB)",
	},
	{
		name: "nfs-miss",
		cluster: func(mode passthru.Mode, workers int) passthru.ClusterConfig {
			return passthru.ClusterConfig{
				Mode: mode, NumClients: 2,
				BlocksPerDisk: missBlocks/4 + 8192, FSCacheBlocks: 8192, NCacheBytes: 64 << 20,
				Workers: workers,
			}
		},
		files: 1, fileBytes: missBlocks * extfs.BlockSize,
		hosts: 2, procs: 1, outstanding: 8,
		warmup: 150 * sim.Millisecond, window: 600 * sim.Millisecond, slo: 12 * sim.Millisecond,
		mix:        mix{dataPct: 100, readSize: 16 << 10, seqRead: true},
		gainMetric: "sim_mbps", paperGain: "+29–36% (Fig. 4, ≥16 KB)",
	},
	{
		name:    "sfs-mix",
		cluster: sfsCluster(false),
		files:   sfsFiles, fileBytes: sfsFileBytes, prefill: true,
		hosts: 2, procs: 1, outstanding: 32,
		warmup: 150 * sim.Millisecond, window: sim.Second, slo: 12 * sim.Millisecond,
		mix:        mix{dataPct: 30, writeFrac: 1.0 / 6},
		gainMetric: "sim_ops_per_s", paperGain: "+16.3% (Fig. 7, 30% regular data)",
	},
	{
		name:    "writeback",
		cluster: sfsCluster(true),
		files:   sfsFiles, fileBytes: sfsFileBytes, prefill: true,
		hosts: 2, procs: 1, outstanding: 32,
		warmup: 150 * sim.Millisecond, window: 600 * sim.Millisecond, slo: 20 * sim.Millisecond,
		writeOnce: true,
		mix:       mix{dataPct: 75, writeFrac: 0.5},
	},
	scaleoutOn("scaleout", 0),
	scaleoutOn("scaleout-par", parWorkers()),
	{
		name: "mirror-outage",
		cluster: func(mode passthru.Mode, workers int) passthru.ClusterConfig {
			return passthru.ClusterConfig{
				Mode: mode, NumClients: 2,
				BlocksPerDisk: outageBlocks/4 + 8192, FSCacheBlocks: 8192, NCacheBytes: 64 << 20,
				Arms: 2, Workers: workers,
				// The flusher's lower writes are what the breaker sees fail.
				Writeback: passthru.WritebackConfig{Enabled: true},
			}
		},
		files: 1, fileBytes: outageBlocks * extfs.BlockSize,
		hosts: 2, procs: 1,
		// ≈ 70% of the healthy closed-loop capacity (4 290 ops/s), so the
		// queue is stable when healthy and any backlog is the outage's.
		rate: 3000, maxOut: 256,
		outage: true,
		warmup: 150 * sim.Millisecond, window: 600 * sim.Millisecond, slo: 30 * sim.Millisecond,
		mix: mix{dataPct: 100, writeFrac: 0.20, readSize: 16 << 10, writeSize: 16 << 10, seqRead: true},
	},
}

func (w *workload) seedName() string {
	if w.input != "" {
		return w.input
	}
	return w.name
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
