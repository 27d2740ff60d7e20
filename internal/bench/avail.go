package bench

import (
	"fmt"
	"strings"
	"time"

	"ncache/internal/passthru"
	"ncache/internal/storage"
	"ncache/internal/trace"
	"ncache/internal/workload"
)

// AvailPolicies are the mirror read-selection policies the NetCAS-style
// comparison table sweeps.
var AvailPolicies = []string{"primary-first", "round-robin", "least-latency"}

// AvailBucket is one timeline sample of the fig-avail experiment.
type AvailBucket struct {
	// StartMs/EndMs bound the bucket relative to the measurement start.
	StartMs float64
	EndMs   float64
	// OpsPerSec/MBs are the mixed read+write service rate in the bucket.
	OpsPerSec float64
	MBs       float64
	// ReadP99Us/WriteP99Us are the bucket's client-observed tails.
	ReadP99Us  float64
	WriteP99Us float64
	// Errors are client-escaped operation failures (must stay 0).
	Errors uint64
	// States snapshots each arm's breaker state at the bucket edge.
	States []string
	// Vol sums the arms' counters over the bucket (DirtyBlocks is the
	// gauge at the bucket edge).
	Vol storage.ArmStats
}

// AvailPolicyPoint is one row of the read-policy comparison: the same
// slow-primary-arm schedule served under a different selection policy.
type AvailPolicyPoint struct {
	NFSPoint
	Policy string
	// ArmReads is the read split across the two arms.
	ArmReads []uint64
}

// AvailReport is the fig-avail output: the failure → circuit-open →
// recovery → resync timeline on a two-arm mirror, phase averages for the
// acceptance check, and the policy table.
type AvailReport struct {
	Buckets []AvailBucket
	// OutageStartMs/OutageEndMs mark the injected disk-error window
	// relative to the measurement start.
	OutageStartMs float64
	OutageEndMs   float64
	// HealthyOps/OutageOps/RecoveredOps are phase-average service rates:
	// before the failure, during the open-circuit window, and after
	// recovery + resync.
	HealthyOps   float64
	OutageOps    float64
	RecoveredOps float64
	// TotalErrors counts client-escaped errors over the whole timeline.
	TotalErrors uint64
	// FinalStates/FinalVol snapshot the mirror after the post-run drain
	// (FinalVol sums the arms' counters over the whole run); Resynced
	// reports full recovery (all arms closed, dirty log empty, at least one
	// completed resync).
	FinalStates []string
	FinalVol    storage.ArmStats
	Resynced    bool
	Policies    []AvailPolicyPoint
}

// armSum sums a volume's per-arm counters since the snapshot before (nil:
// since the start) and its arms' current DirtyBlocks gauges; Name and State
// stay empty.
func armSum(now, before []storage.ArmStats) storage.ArmStats {
	var v storage.ArmStats
	for i, a := range now {
		var b storage.ArmStats
		if before != nil {
			b = before[i]
		}
		v.Reads += a.Reads - b.Reads
		v.Writes += a.Writes - b.Writes
		v.Errors += a.Errors - b.Errors
		v.Ejections += a.Ejections - b.Ejections
		v.Probes += a.Probes - b.Probes
		v.Resyncs += a.Resyncs - b.Resyncs
		v.ResyncBlocks += a.ResyncBlocks - b.ResyncBlocks
		v.DirtyBlocks += a.DirtyBlocks
	}
	return v
}

// armStates lists each arm's breaker state.
func armStates(stats []storage.ArmStats) []string {
	out := make([]string, len(stats))
	for i, s := range stats {
		out[i] = s.State.String()
	}
	return out
}

// opP99Us extracts one op's p99 from a summary, in microseconds.
func opP99Us(s *trace.Summary, op string) float64 {
	for _, o := range s.Ops {
		if o.Op == op {
			return float64(o.P99) / 1e3
		}
	}
	return 0
}

// availBuckets is the timeline resolution; the outage window spans buckets
// [availBuckets/6, availBuckets/2).
const availBuckets = 24

// avail measures availability through an arm failure on a two-arm mirrored
// target: a mixed read/write load runs continuously while the second arm's
// disks hard-fail for a third of the window — the breaker ejects the arm,
// the survivor keeps serving, and when the errors stop the half-open probe
// readmits the arm through a dirty-region resync. The timeline is sampled
// in buckets; a NetCAS-style policy comparison under a slow (not failing)
// arm follows.
func avail(h *harness) (AvailReport, error) {
	opt := h.opt
	fileBlocks := int64(96*1024) / int64(opt.Scale)
	cl, reads, err := h.missRig(passthru.ClusterConfig{
		Mode: passthru.NCache,
		Arms: 2,
		// The async write-back pipeline streams dirty blocks to the mirror
		// continuously — that lower-write traffic is what the breaker sees
		// failing during the arm outage.
		Writeback: passthru.WritebackConfig{Enabled: true},
	}, fileBlocks, 16, nil)
	if err != nil {
		return AvailReport{}, err
	}
	tr := trace.NewTracer(cl.Eng, "fig-avail")
	reads.Tracer = tr
	wc := opt.Concurrency / 4
	if wc == 0 {
		wc = 1
	}
	writes := &workload.NFSWriteLoad{
		Clients:     reads.Clients,
		FH:          reads.FH,
		FileSize:    reads.FileSize,
		RequestSize: reads.RequestSize,
		Concurrency: wc,
		Tracer:      tr,
	}
	load := loadPair{reads, writes}

	// The outage window is anchored in absolute virtual time as the window
	// opens, once warm-up has consumed its (deterministic) share of the
	// clock; each bucket edge samples the timeline.
	bucket := opt.Window / availBuckets
	var rep AvailReport
	var faultErr error
	var ops0, bytes0, errs0 uint64
	var arms0 []storage.ArmStats
	_, err = h.measure(cl, load, tr, availBuckets, func() {
		start, end := bucket*(availBuckets/6), bucket*(availBuckets/2)
		rep.OutageStartMs, rep.OutageEndMs = float64(start)/1e6, float64(end)/1e6
		t0 := cl.Eng.Now()
		in, err := cl.InstallFaults(opt.FaultSeed, fmt.Sprintf("diskerr:s0m1.disk*:rate=1:start=%s:end=%s",
			time.Duration(t0.Add(start)), time.Duration(t0.Add(end))))
		in.Arm()
		faultErr = err
		ops0, bytes0, errs0 = load.Counters()
		arms0 = cl.App.Volume.Stats()
	}, func(i int) {
		ops1, bytes1, errs1 := load.Counters()
		arms1 := cl.App.Volume.Stats()
		sum := tr.Summary()
		tr.ResetStats()
		b := AvailBucket{
			StartMs:    float64(bucket) * float64(i) / 1e6,
			EndMs:      float64(bucket) * float64(i+1) / 1e6,
			OpsPerSec:  float64(ops1-ops0) / bucket.Seconds(),
			MBs:        float64(bytes1-bytes0) / bucket.Seconds() / 1e6,
			ReadP99Us:  opP99Us(sum, "read"),
			WriteP99Us: opP99Us(sum, "write"),
			Errors:     errs1 - errs0,
			States:     armStates(arms1),
			Vol:        armSum(arms1, arms0),
		}
		rep.Buckets = append(rep.Buckets, b)
		rep.TotalErrors += b.Errors
		ops0, bytes0, errs0, arms0 = ops1, bytes1, errs1, arms1
	})
	if err == nil {
		err = faultErr
	}
	if err != nil {
		return AvailReport{}, err
	}

	final := cl.App.Volume.Stats()
	rep.FinalStates = armStates(final)
	rep.FinalVol = armSum(final, nil)
	rep.Resynced = rep.FinalVol.Resyncs >= 1 && rep.FinalVol.DirtyBlocks == 0
	for _, s := range final {
		if s.State != storage.ArmClosed {
			rep.Resynced = false
		}
	}
	rep.HealthyOps = phaseOps(rep.Buckets, 0, availBuckets/6)
	rep.OutageOps = phaseOps(rep.Buckets, availBuckets/6, availBuckets/2)
	rep.RecoveredOps = phaseOps(rep.Buckets, availBuckets*3/4, availBuckets)

	// Policy comparison: same mirror, primary arm slowed (2 ms per disk
	// I/O) instead of failed — the regime where selection policy, not the
	// breaker, decides service quality.
	h.opt.Latency = true // the policy table reports read p99
	for _, pol := range AvailPolicies {
		p, err := availPolicyPoint(h, fileBlocks, pol)
		if err != nil {
			return AvailReport{}, fmt.Errorf("fig-avail policy %s: %w", pol, err)
		}
		rep.Policies = append(rep.Policies, p)
	}
	return rep, nil
}

// loadPair runs two loads as one: started and stopped in order, counted
// together.
type loadPair [2]workload.Load

func (p loadPair) Start() { p[0].Start(); p[1].Start() }
func (p loadPair) Stop()  { p[0].Stop(); p[1].Stop() }

func (p loadPair) Counters() (ops, bytes, errs uint64) {
	ao, ab, ae := p[0].Counters()
	bo, bb, be := p[1].Counters()
	return ao + bo, ab + bb, ae + be
}

func (p loadPair) Outstanding() uint64 { return p[0].Outstanding() + p[1].Outstanding() }

// phaseOps averages bucket service rates over [from, to), a non-empty
// range of the buckets.
func phaseOps(buckets []AvailBucket, from, to int) float64 {
	sum := 0.0
	for _, b := range buckets[from:to] {
		sum += b.OpsPerSec
	}
	return sum / float64(to-from)
}

// availPolicyPoint measures an all-miss read point on a two-arm mirror
// whose primary arm's disks carry a 2 ms injected latency.
func availPolicyPoint(h *harness, fileBlocks int64, policy string) (AvailPolicyPoint, error) {
	cl, load, err := h.missRig(passthru.ClusterConfig{
		Mode:      passthru.NCache,
		Arms:      2,
		ArmPolicy: policy,
		FaultSpec: "slowdisk:disk*:rate=1:delay=2ms",
		FaultSeed: h.opt.FaultSeed,
	}, fileBlocks, 16, nil)
	if err != nil {
		return AvailPolicyPoint{}, err
	}
	np, err := h.nfsPoint(cl, load)
	if err != nil {
		return AvailPolicyPoint{}, err
	}
	p := AvailPolicyPoint{NFSPoint: np, Policy: policy}
	for _, s := range cl.App.Volume.Stats() {
		p.ArmReads = append(p.ArmReads, s.Reads)
	}
	return p, nil
}

// FormatAvail renders the fig-avail timeline, phase summary and policy
// table.
func FormatAvail(r AvailReport) string {
	var b strings.Builder
	b.WriteString("fig-avail: service through arm failure, circuit-open, recovery and resync\n")
	fmt.Fprintf(&b, "two-arm mirror, mixed 16KB read+write load; arm m1 disks hard-fail %.0f–%.0f ms\n\n",
		r.OutageStartMs, r.OutageEndMs)
	fmt.Fprintf(&b, "%7s %9s %8s %10s %10s %5s %-15s %7s %7s %7s\n",
		"t_ms", "ops/s", "MB/s", "rd_p99µs", "wr_p99µs", "errs", "arms", "ejects", "resync", "dirty")
	for _, bk := range r.Buckets {
		fmt.Fprintf(&b, "%7.1f %9.0f %8.1f %10.1f %10.1f %5d %-15s %7d %7d %7d\n",
			bk.EndMs, bk.OpsPerSec, bk.MBs, bk.ReadP99Us, bk.WriteP99Us, bk.Errors,
			strings.Join(bk.States, "/"), bk.Vol.Ejections, bk.Vol.ResyncBlocks, bk.Vol.DirtyBlocks)
	}
	outagePct := 0.0
	if r.HealthyOps > 0 {
		outagePct = 100 * r.OutageOps / r.HealthyOps
	}
	recoveredPct := 0.0
	if r.HealthyOps > 0 {
		recoveredPct = 100 * r.RecoveredOps / r.HealthyOps
	}
	fmt.Fprintf(&b, "\nphase averages: healthy %.0f ops/s | outage %.0f ops/s (%.0f%% of healthy) | recovered %.0f ops/s (%.0f%%)\n",
		r.HealthyOps, r.OutageOps, outagePct, r.RecoveredOps, recoveredPct)
	fmt.Fprintf(&b, "escaped client errors: %d\n", r.TotalErrors)
	v := r.FinalVol
	fmt.Fprintf(&b, "final mirror state: %s, volume{r=%d w=%d err=%d eject=%d probe=%d resync=%d (%d blk) dirty=%d}, resynced=%v\n",
		strings.Join(r.FinalStates, "/"), v.Reads, v.Writes, v.Errors, v.Ejections, v.Probes, v.Resyncs, v.ResyncBlocks, v.DirtyBlocks, r.Resynced)

	b.WriteString("\nread-policy comparison (primary arm +2ms per disk I/O, all-miss 16KB reads):\n")
	fmt.Fprintf(&b, "%-14s %9s %9s %10s %6s %s\n",
		"policy", "MB/s", "ops/s", "rd_p99µs", "errs", "arm reads m0/m1")
	for _, p := range r.Policies {
		split := make([]string, len(p.ArmReads))
		for i, n := range p.ArmReads {
			split[i] = fmt.Sprintf("%d", n)
		}
		fmt.Fprintf(&b, "%-14s %9.1f %9.0f %10.1f %6d %s\n",
			p.Policy, p.ThroughputMBs, p.OpsPerSec, readP99(p.NFSPoint), p.Errors,
			strings.Join(split, "/"))
	}
	return b.String()
}
