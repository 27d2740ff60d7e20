package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"strings"

	"ncache/internal/trace"
)

// This file turns one traced repetition into the per-layer metrics: counter
// deltas over the window, the tracer's latency shares, and the CPU
// profile's samples by package. Every counter is read through a field or
// method the program already exports.

// counters reads every cumulative counter the layer metrics need; call only
// between engine runs.
func (r *rep) counters() map[string]float64 {
	c := map[string]float64{}
	add := func(k string, v uint64) { c[k] += float64(v) }
	cl := r.cl
	for _, app := range cl.Apps {
		n := app.Node
		add("copy_bytes", n.Copies.PhysicalBytes)
		add("checksum_bytes", n.Copies.ChecksumBytes)
		add("logical_copies", n.Copies.LogicalOps)
		net := n.NetTotals()
		add("packets", net.PacketsTx+net.PacketsRx)
		add("fs_hits", app.Cache.Stats.Hits)
		add("fs_misses", app.Cache.Stats.Misses)
		add("fs_evictions", app.Cache.Stats.Evictions)
		if m := app.Module; m != nil {
			add("nc_lbn_hits", m.Stats.LBNHits)
			add("nc_fho_hits", m.Stats.FHOHits)
			add("nc_l2_hits", m.Stats.L2Hits)
			add("nc_l2_misses", m.Stats.L2Misses)
			add("nc_subst_misses", m.Stats.SubstMisses)
			add("nc_substitutions", m.Stats.Substitutions)
			add("nc_remaps", m.Stats.Remaps)
			add("nc_evictions", m.Stats.Evictions)
			add("nc_pinned_skips", m.Stats.PinnedSkips)
		}
		if wb := app.WB; wb != nil {
			add("wal_commits", wb.WALCommits)
			add("wal_records", wb.CommitRecords)
			add("wal_truncates", wb.WALTruncates)
			add("flush_batches", wb.FlushBatches)
			add("flush_blocks", wb.FlushBlocks)
			add("stalls", wb.Stalls)
			add("stall_ns", uint64(wb.StallNs))
		}
		for _, ini := range app.Initiators {
			add("iscsi_retries", ini.Retries)
		}
		for _, a := range app.Volume.Stats() {
			add("arm_reads", a.Reads)
			add("arm_writes", a.Writes)
			add("arm_errors", a.Errors)
			add("ejections", a.Ejections)
			add("probes", a.Probes)
			add("resync_blocks", a.ResyncBlocks)
		}
		if ag := app.Agent; ag != nil {
			add("remap_sends", ag.Stats.RemapsSent+ag.Stats.RemapRetries)
			add("remaps_announced", ag.Stats.RemapsSent)
		}
	}
	rtx, rtos, _, _, _ := cl.TCPCounters()
	add("tcp_retransmits", rtx)
	add("tcp_rtos", rtos)
	for _, h := range cl.Clients {
		if rpc := h.NFS.DatagramRPC(); rpc != nil {
			add("rpc_retransmits", rpc.Retransmits)
			add("rpc_timeouts", rpc.Timeouts)
		}
	}
	for _, sc := range r.scs {
		for _, nc := range sc.NFS {
			if rpc := nc.DatagramRPC(); rpc != nil {
				add("rpc_retransmits", rpc.Retransmits)
				add("rpc_timeouts", rpc.Timeouts)
			}
		}
		if rs := sc.Resolver; rs != nil {
			add("route_lookups", rs.Stats.Lookups)
			add("route_local_hits", rs.Stats.LocalHits+rs.Stats.CacheHits)
			add("resolver_retries", rs.Stats.Retries)
		}
	}
	if cp := cl.Control; cp != nil {
		add("cp_remaps", cp.Stats.RemapsStarted)
		add("cp_invalidations", cp.Stats.InvalidationsSent)
		add("cp_invalidation_resends", cp.Stats.InvalidationResends)
	}
	for _, sched := range cl.Faults.Report() {
		add("fault_injections", sched.Injected)
	}
	return c
}

func diff(a, b map[string]float64) map[string]float64 {
	d := map[string]float64{}
	for k, v := range b {
		d[k] = v - a[k]
	}
	return d
}

// ratio is a/b, or 0 when b is 0 (the layer did no such work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuLayers are the internal/<pkg> packages that get a host CPU share of
// their own; goruntime, driver and other complete the hundred.
var cpuLayers = []string{"sim", "netbuf", "simnet", "proto", "sunrpc", "xdr", "nfs", "passthru",
	"extfs", "buffercache", "ncache", "wal", "iscsi", "storage", "blockdev", "controlplane"}

// latLayers maps the tracer's attribution layers to module names.
var latLayers = map[trace.Layer]string{
	trace.LClient: "driver", trace.LNet: "simnet", trace.LRPC: "sunrpc", trace.LServer: "nfs",
	trace.LFS: "buffercache", trace.LNCache: "ncache", trace.LISCSI: "iscsi", trace.LDisk: "blockdev",
}

type layerInput struct {
	c        map[string]float64 // counter deltas over the window
	util     map[string]float64
	ops      float64 // ops completed in the window
	lat      [numClasses + 1][]int64
	h0, h1   hostClock
	gcCycles uint32
	summary  *trace.Summary
	profile  []byte
}

func (r *rep) layerMetrics(in layerInput) map[string]float64 {
	c, u, ops, loadOps := in.c, in.util, in.ops, float64(r.res.LoadOps)
	wallS := in.h1.wall.Sub(in.h0.wall).Seconds()
	cpuS := (in.h1.cpu - in.h0.cpu).Seconds()
	run0, run1 := in.h0.run, in.h1.run
	events := float64(run1.Events - run0.Events)
	epochs := float64(run1.Epochs - run0.Epochs)
	m := map[string]float64{
		"sim.events_per_op":       ratio(events, loadOps),
		"sim.host_ns_per_event":   ratio(cpuS*1e9, events),
		"sim.host_cpu_us_per_op":  ratio(cpuS*1e6, loadOps),
		"sim.host_wall_us_per_op": ratio(wallS*1e6, loadOps),
		"sim.epochs":              epochs,
		"sim.events_per_epoch":    ratio(events, epochs),
		"sim.barrier_ms":          float64(run1.BarrierNs-run0.BarrierNs) / 1e6,
		"sim.staged_admits":       float64(run1.StagedAdmits - run0.StagedAdmits),

		"goruntime.gc_cycles":        float64(in.gcCycles),
		"goruntime.gc_cpu_share_pct": 100 * ratio(in.h1.gcCPU-in.h0.gcCPU, cpuS),

		"netbuf.copy_bytes_per_op":     ratio(c["copy_bytes"], ops),
		"netbuf.checksum_bytes_per_op": ratio(c["checksum_bytes"], ops),
		"netbuf.logical_copies_per_op": ratio(c["logical_copies"], ops),

		"simnet.link_util_pct":  100 * u["link"],
		"simnet.packets_per_op": ratio(c["packets"], ops),

		"proto.tcp_retransmits": c["tcp_retransmits"],
		"proto.tcp_rtos":        c["tcp_rtos"],

		"sunrpc.retransmits": c["rpc_retransmits"],
		"sunrpc.timeouts":    c["rpc_timeouts"],

		"nfs.read_p50_us":  quantile(in.lat[clsRead], 0.5) / 1e3,
		"nfs.read_p99_us":  first(tail(in.lat[clsRead])) / 1e3,
		"nfs.write_p50_us": quantile(in.lat[clsWrite], 0.5) / 1e3,
		"nfs.write_p99_us": first(tail(in.lat[clsWrite])) / 1e3,
		"nfs.meta_p99_us":  first(tail(in.lat[clsMeta])) / 1e3,

		"passthru.server_cpu_pct":  100 * u["server_cpu"],
		"passthru.storage_cpu_pct": 100 * u["storage_cpu"],

		"buffercache.hit_pct":          100 * ratio(c["fs_hits"], c["fs_hits"]+c["fs_misses"]),
		"buffercache.evictions":        c["fs_evictions"],
		"buffercache.flush_batches":    c["flush_batches"],
		"buffercache.blocks_per_batch": ratio(c["flush_blocks"], c["flush_batches"]),
		"buffercache.stalls":           c["stalls"],
		"buffercache.stall_ms":         c["stall_ns"] / 1e6,
		"buffercache.dirty_peak_mb":    0,

		"ncache.lbn_hits":             c["nc_lbn_hits"],
		"ncache.fho_hits":             c["nc_fho_hits"],
		"ncache.l2_hit_pct":           100 * ratio(c["nc_l2_hits"], c["nc_l2_hits"]+c["nc_l2_misses"]),
		"ncache.subst_misses":         c["nc_subst_misses"],
		"ncache.substitutions_per_op": ratio(c["nc_substitutions"], ops),
		"ncache.remaps":               c["nc_remaps"],
		"ncache.evictions":            c["nc_evictions"],
		"ncache.pinned_skips":         c["nc_pinned_skips"],

		"wal.commits":            c["wal_commits"],
		"wal.records_per_commit": ratio(c["wal_records"], c["wal_commits"]),
		"wal.truncates":          c["wal_truncates"],
		"wal.peak_depth":         0,

		"iscsi.retries":          c["iscsi_retries"],
		"iscsi.lower_ios_per_op": ratio(c["arm_reads"]+c["arm_writes"], ops),

		"storage.arm_reads":     c["arm_reads"],
		"storage.arm_writes":    c["arm_writes"],
		"storage.arm_errors":    c["arm_errors"],
		"storage.ejections":     c["ejections"],
		"storage.probes":        c["probes"],
		"storage.resync_blocks": c["resync_blocks"],
		"storage.resync_ms":     r.resyncMs,
		// Phase ratios exist on mirror-outage only (filled in below).
		"storage.outage_vs_healthy_pct":    0,
		"storage.recovered_vs_healthy_pct": 0,

		"blockdev.disk_util_pct": 100 * u["disk"],

		"controlplane.cpu_pct":              100 * u["cp_cpu"],
		"controlplane.remaps":               c["cp_remaps"],
		"controlplane.sends_per_remap":      ratio(c["remap_sends"], c["remaps_announced"]),
		"controlplane.invalidations":        c["cp_invalidations"],
		"controlplane.invalidation_resends": c["cp_invalidation_resends"],
		"controlplane.resolver_retries":     c["resolver_retries"],
		"controlplane.local_route_hit_pct":  100 * ratio(c["route_local_hits"], c["route_lookups"]),

		"fault.injections": c["fault_injections"],

		"trace.attr_errors": float64(in.summary.AttrErrors),

		"driver.p50_us":      r.res.P50Us,
		"driver.p99_us":      r.res.TailUs,
		"driver.samples":     float64(r.res.Samples),
		"driver.late_p99_us": first(tail(in.lat[numClasses])) / 1e3,
	}
	// Gauges the program keeps as whole-run peaks.
	for _, app := range r.cl.Apps {
		if wb := app.WB; wb != nil {
			m["buffercache.dirty_peak_mb"] += float64(wb.DirtyPeakBytes) / 1e6
			m["wal.peak_depth"] += float64(wb.WALPeakDepth)
		}
	}
	for _, s := range r.d.streams {
		m["driver.peak_outstanding"] += float64(s.peak)
		m["driver.verified_bytes"] += float64(s.verified)
	}

	// Mirror-outage phases: completions per 25 ms bucket, healthy = buckets
	// 0–3, outage = 4–11, recovered = 18–23.
	if b := r.res.Buckets; b != nil {
		mean := func(from, to int) float64 {
			var sum uint64
			for _, v := range b[from:to] {
				sum += v
			}
			return float64(sum) / float64(to-from)
		}
		m["storage.outage_vs_healthy_pct"] = 100 * ratio(mean(4, 12), mean(0, 4))
		m["storage.recovered_vs_healthy_pct"] = 100 * ratio(mean(18, 24), mean(0, 4))
	}

	// Simulated latency shares: each layer's part of the summed request
	// latency over every op class.
	var total float64
	share := map[string]float64{}
	for _, o := range in.summary.Ops {
		total += float64(o.Total)
		for _, l := range o.Layers {
			share[latLayers[l.Layer]] += float64(l.Total)
		}
	}
	for _, name := range latLayers {
		m[name+".lat_share_pct"] = 100 * ratio(share[name], total)
	}

	// Host CPU shares: profile samples by the package of the leaf function.
	cpu := profileShares(in.profile)
	for _, l := range append([]string{"goruntime", "driver", "other"}, cpuLayers...) {
		m[l+".host_cpu_share_pct"] = cpu[l]
	}
	return m
}

func first(v, _ float64) float64 { return v }

// profileLayer names the layer a profiled function belongs to.
func profileLayer(fn string) string {
	const internal = "ncache/internal/"
	switch {
	case strings.HasPrefix(fn, "main."):
		return "driver"
	case strings.HasPrefix(fn, internal):
		pkg := fn[len(internal):]
		pkg = pkg[:strings.IndexAny(pkg, "/.")]
		for _, l := range cpuLayers {
			if l == pkg {
				return l
			}
		}
		return "other"
	case strings.HasPrefix(fn, "runtime") || strings.HasPrefix(fn, "internal/runtime") ||
		strings.HasPrefix(fn, "sync") || strings.HasPrefix(fn, "gc"):
		return "goruntime"
	}
	return "other"
}

// profileShares reads a gzipped pprof CPU profile and returns each layer's
// percentage of samples, by leaf function. It decodes only the five message
// fields it needs (see profile.proto in github.com/google/pprof).
func profileShares(gz []byte) map[string]float64 {
	shares := map[string]float64{}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return shares
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return shares
	}
	var strs []string
	funcName := map[uint64]uint64{} // function id -> name's string index
	locFunc := map[uint64]uint64{}  // location id -> leaf function id
	type sample struct{ loc, n uint64 }
	var samples []sample
	fields(raw, func(num int, v uint64, b []byte) {
		switch num {
		case 2: // Sample{location_id = 1, value = 2}
			var s sample
			gotLoc, gotVal := false, false
			fields(b, func(num int, v uint64, b []byte) {
				vals := unpack(v, b)
				if num == 1 && !gotLoc && len(vals) > 0 {
					s.loc, gotLoc = vals[0], true
				}
				if num == 2 && !gotVal && len(vals) > 0 {
					s.n, gotVal = vals[0], true
				}
			})
			samples = append(samples, s)
		case 4: // Location{id = 1, line = 4 {function_id = 1}}
			var id, fn uint64
			gotLine := false
			fields(b, func(num int, v uint64, b []byte) {
				if num == 1 {
					id = v
				}
				if num == 4 && !gotLine {
					gotLine = true
					fields(b, func(num int, v uint64, _ []byte) {
						if num == 1 {
							fn = v
						}
					})
				}
			})
			locFunc[id] = fn
		case 5: // Function{id = 1, name = 2}
			var id, name uint64
			fields(b, func(num int, v uint64, _ []byte) {
				if num == 1 {
					id = v
				}
				if num == 2 {
					name = v
				}
			})
			funcName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
	})
	var total float64
	for _, s := range samples {
		name := ""
		if i := funcName[locFunc[s.loc]]; i < uint64(len(strs)) {
			name = strs[i]
		}
		shares[profileLayer(name)] += float64(s.n)
		total += float64(s.n)
	}
	for k := range shares {
		shares[k] = 100 * shares[k] / total
	}
	return shares
}

// fields walks one protobuf message, calling fn with each field's number
// and its varint value or length-delimited bytes.
func fields(b []byte, fn func(num int, v uint64, bytes []byte)) {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return
		}
		b = b[n:]
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return
			}
			b = b[n:]
			fn(int(key>>3), v, nil)
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return
			}
			fn(int(key>>3), 0, b[n:n+int(l)])
			b = b[n+int(l):]
		case 1, 5:
			skip := 8 // fixed64; fixed32 is wire type 5
			if key&7 == 5 {
				skip = 4
			}
			if len(b) < skip {
				return
			}
			b = b[skip:]
		default:
			return
		}
	}
}

// unpack returns a repeated varint field's values, packed or not.
func unpack(v uint64, packed []byte) []uint64 {
	if packed == nil {
		return []uint64{v}
	}
	var out []uint64
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		out = append(out, x)
		packed = packed[n:]
	}
	return out
}
