package bench

import (
	"errors"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ncache/internal/passthru"
	"ncache/internal/sim"
)

// quickOpts keeps unit-test experiment runs short.
func quickOpts() Options {
	return Options{
		Warmup:      20 * sim.Millisecond,
		Window:      80 * sim.Millisecond,
		Concurrency: 6,
		Scale:       16,
	}
}

// points runs a registered experiment and returns its typed point slice.
func points[P any](t *testing.T, name string, opt Options) P {
	t.Helper()
	res, err := Select(name)[0].Run(opt)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res.Points.(P)
}

// TestAwait checks the one wait helper: a call that never answers fails with
// an error naming it, and a later call's error is not hidden by an earlier
// call's success.
func TestAwait(t *testing.T) {
	eng := sim.NewEngine()
	err := await(eng, func(p *pending) { p.expect("lookup silent") })
	if err == nil || !strings.Contains(err.Error(), "lookup silent") {
		t.Fatalf("unanswered call: got %v, want an error naming it", err)
	}

	boom := errors.New("boom")
	err = await(eng, func(p *pending) {
		first, second := p.expect("first"), p.expect("second")
		eng.Schedule(sim.Millisecond, func() { first(nil) })
		eng.Schedule(2*sim.Millisecond, func() { second(boom) })
	})
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "second") {
		t.Fatalf("second call failed: got %v, want its error", err)
	}
}

// TestMeasureDrainBounded checks that a loop that never quiesces fails the
// measurement instead of spinning: a node timer that reschedules itself every
// millisecond keeps the drain busy until drainBound, and measure names the
// drain and the events still queued.
func TestMeasureDrainBounded(t *testing.T) {
	opt := Options{Warmup: sim.Millisecond, Window: 5 * sim.Millisecond, Concurrency: 2}
	h := testHarness(t, opt)
	cl, load, err := h.hitRig(passthru.ClusterConfig{Mode: passthru.NCache}, 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	ticks := 0
	var tick func()
	tick = func() {
		ticks++
		cl.App.Node.Schedule(sim.Millisecond, tick)
	}
	cl.App.Node.Schedule(sim.Millisecond, tick)
	_, err = h.measure(cl, load, nil, 1, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "drain: 1 events still queued") {
		t.Fatalf("measure: got %v, want the drain to fail with 1 event queued", err)
	}
	if want := int(drainBound / sim.Millisecond); ticks < want {
		t.Fatalf("timer fired %d times, want at least %d (the whole bound)", ticks, want)
	}
	t.Logf("%v (timer fired %d times)", err, ticks)
}

// testHarness is a harness for tests that measure single points.
func testHarness(t *testing.T, opt Options) *harness {
	h := newHarness(opt)
	t.Cleanup(h.retire)
	return h
}

func TestTable1Inventory(t *testing.T) {
	rows := Table1()
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	// The two famous "None" rows.
	for _, i := range []int{0, 1} {
		if rows[i].Paper != "None" {
			t.Fatalf("row %d paper = %q, want None", i, rows[i].Paper)
		}
	}
	// The iSCSI row names the one interception point of the lower tier.
	if !strings.Contains(rows[2].ThisRepo, "passthru.interceptVolume.ReadAt + WriteAt") {
		t.Fatalf("iSCSI row = %q, want the one volume decorator", rows[2].ThisRepo)
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "buffer cache") || !strings.Contains(out, "iSCSI initiator") {
		t.Fatal("formatted table missing modules")
	}
}

func TestTable2MatchesPaperExactly(t *testing.T) {
	rows := points[[]Table2Row](t, "table2", Options{})
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	for _, r := range rows {
		if r.Copies != r.Want {
			t.Errorf("%s %s: measured %d, paper %d", r.Server, r.Path, r.Copies, r.Want)
		}
	}
	out := FormatTable2(rows)
	if strings.Contains(out, "MISMATCH") {
		t.Fatalf("table contains mismatches:\n%s", out)
	}
}

func TestFig5bOrderingHolds(t *testing.T) {
	pts := points[[]NFSPoint](t, "fig5b", quickOpts())
	idx := nfsByMode(pts)
	for _, kb := range RequestSizesKB {
		orig := idx[passthru.Original][kb]
		nc := idx[passthru.NCache][kb]
		base := idx[passthru.Baseline][kb]
		if orig.Errors+nc.Errors+base.Errors != 0 {
			t.Fatalf("%dKB: errors present", kb)
		}
		// The paper's invariant: baseline >= ncache >= original.
		if nc.ThroughputMBs < orig.ThroughputMBs*0.99 {
			t.Errorf("%dKB: ncache (%.1f) below original (%.1f)", kb, nc.ThroughputMBs, orig.ThroughputMBs)
		}
		if base.ThroughputMBs < nc.ThroughputMBs*0.99 {
			t.Errorf("%dKB: baseline (%.1f) below ncache (%.1f)", kb, base.ThroughputMBs, nc.ThroughputMBs)
		}
	}
	// Gains grow with request size (per-byte savings dominate per-packet).
	if g4, g32 := gainAt(pts, passthru.NCache, 4), gainAt(pts, passthru.NCache, 32); g32 <= g4 {
		t.Errorf("ncache gain did not grow with request size: %.1f%% @4KB vs %.1f%% @32KB", g4, g32)
	}
	// CPU-bound regime: original saturates its CPU.
	if cpu := idx[passthru.Original][32].ServerCPU; cpu < 0.95 {
		t.Errorf("original server CPU = %.2f, want saturation", cpu)
	}
}

func TestFig4StorageSaturatesForNCache(t *testing.T) {
	pts := points[[]NFSPoint](t, "fig4", quickOpts())
	idx := nfsByMode(pts)
	// All-miss at 32 KB: the storage server becomes the bottleneck for
	// the zero-copy configurations (§5.4).
	if sto := idx[passthru.NCache][32].StorageCPU; sto < 0.85 {
		t.Errorf("ncache storage CPU = %.2f, want near saturation", sto)
	}
	if cpu := idx[passthru.Original][32].ServerCPU; cpu < 0.85 {
		t.Errorf("original server CPU = %.2f, want near saturation", cpu)
	}
	// NCache's server has headroom left (its curve declines in Fig 4(b)).
	if nc, orig := idx[passthru.NCache][32].ServerCPU, idx[passthru.Original][32].ServerCPU; nc >= orig {
		t.Errorf("ncache server CPU (%.2f) not below original (%.2f)", nc, orig)
	}
}

func TestFig6bWebGainsGrowWithRequestSize(t *testing.T) {
	pts := points[[]WebPoint](t, "fig6b", quickOpts())
	base := map[int]float64{}
	nc := map[int]float64{}
	for _, p := range pts {
		if p.Errors != 0 {
			t.Fatalf("%s@%d: %d errors", p.Mode, p.ParamKB, p.Errors)
		}
		switch p.Mode {
		case passthru.Original:
			base[p.ParamKB] = p.ThroughputMBs
		case passthru.NCache:
			nc[p.ParamKB] = p.ThroughputMBs
		}
	}
	g16 := gainPct(nc[16], base[16])
	g128 := gainPct(nc[128], base[128])
	if g16 <= 0 || g128 <= g16 {
		t.Fatalf("web gains not growing: %.1f%% @16KB, %.1f%% @128KB", g16, g128)
	}
}

func TestFig7GainsGrowWithDataFraction(t *testing.T) {
	pts := points[[]SFSPoint](t, "fig7", quickOpts())
	gain := map[int]float64{}
	base := map[int]float64{}
	for _, p := range pts {
		if p.Errors != 0 {
			t.Fatalf("%s@%d%%: %d errors", p.Mode, p.RegularDataPct, p.Errors)
		}
		switch p.Mode {
		case passthru.Original:
			base[p.RegularDataPct] = p.OpsPerSec
		case passthru.NCache:
			gain[p.RegularDataPct] = p.OpsPerSec
		}
	}
	g30 := gainPct(gain[30], base[30])
	g75 := gainPct(gain[75], base[75])
	if g30 <= 0 {
		t.Fatalf("no gain at 30%% regular data: %.1f%%", g30)
	}
	if g75 <= g30 {
		t.Fatalf("gain did not grow with data fraction: %.1f%% → %.1f%%", g30, g75)
	}
}

// TestTransportTCPCostsThroughput: NFS over TCP costs throughput and
// packets against UDP. The run is fault-free, so every recovery counter is
// zero and the table has no loss-recovery section.
func TestTransportTCPCostsThroughput(t *testing.T) {
	pts := points[[]TransportPoint](t, "transport", quickOpts())
	byKey := map[string]TransportPoint{}
	for _, p := range pts {
		byKey[p.Mode.String()+"/"+p.Transport] = p
		if p.RPCRetransmits+p.RPCTimeouts+p.DupReplies+p.ISCSIRetries+
			p.TCPRetransmits+p.TCPRTOs+p.TCPFastRtx != 0 || p.FaultReport != nil {
			t.Errorf("%s/%s: fault-free run reports recovery activity: %+v", p.Mode, p.Transport, p.window)
		}
	}
	if out := FormatTransportPoints(pts); strings.Contains(out, "loss recovery") {
		t.Errorf("fault-free table prints a loss-recovery section:\n%s", out)
	}
	for _, mode := range []string{"original", "ncache"} {
		u, tc := byKey[mode+"/udp"], byKey[mode+"/tcp"]
		if tc.ThroughputMBs >= u.ThroughputMBs {
			t.Errorf("%s: TCP (%.1f) not slower than UDP (%.1f)", mode, tc.ThroughputMBs, u.ThroughputMBs)
		}
		if tc.ServerPkts <= u.ServerPkts {
			t.Errorf("%s: TCP pkts/req (%.1f) not above UDP (%.1f)", mode, tc.ServerPkts, u.ServerPkts)
		}
	}
}

func TestWireFormatLiftsNCacheCeiling(t *testing.T) {
	pts := points[[]WireFormatPoint](t, "futurework", quickOpts())
	gains := map[passthru.Mode]float64{}
	base := map[passthru.Mode]float64{}
	for _, p := range pts {
		if p.WireFormat {
			gains[p.Mode] = p.ThroughputMBs
		} else {
			base[p.Mode] = p.ThroughputMBs
		}
	}
	origGain := gains[passthru.Original]/base[passthru.Original] - 1
	ncGain := gains[passthru.NCache]/base[passthru.NCache] - 1
	// §6's motivation: the storage-side fix helps the zero-copy server
	// far more than the copy-bound original.
	if ncGain <= origGain {
		t.Errorf("wire-format gains: ncache %.1f%% <= original %.1f%%", ncGain*100, origGain*100)
	}
	if ncGain < 0.05 {
		t.Errorf("ncache wire-format gain %.1f%% too small", ncGain*100)
	}
}

func TestGainPct(t *testing.T) {
	if g := gainPct(150, 100); g != 50 {
		t.Fatalf("gainPct = %v", g)
	}
	if g := gainPct(100, 0); g != 0 {
		t.Fatalf("gainPct with zero base = %v", g)
	}
}

func TestFormatters(t *testing.T) {
	nfsPts := []NFSPoint{
		{window: window{ThroughputMBs: 10}, Mode: passthru.Original, ReqKB: 4},
		{window: window{ThroughputMBs: 15}, Mode: passthru.NCache, ReqKB: 4},
	}
	out := FormatNFSPoints("t", nfsPts)
	if !strings.Contains(out, "+50.0%") {
		t.Fatalf("gain missing:\n%s", out)
	}
	webPts := []WebPoint{
		{window: window{ThroughputMBs: 10}, Mode: passthru.Original, ParamKB: 16},
		{window: window{ThroughputMBs: 14}, Mode: passthru.Baseline, ParamKB: 16},
	}
	if out := FormatWebPoints("t", "reqKB", webPts); !strings.Contains(out, "+40.0%") {
		t.Fatalf("web gain missing:\n%s", out)
	}
	sfsPts := []SFSPoint{
		{window: window{OpsPerSec: 100}, Mode: passthru.Original, RegularDataPct: 30},
		{window: window{OpsPerSec: 120}, Mode: passthru.NCache, RegularDataPct: 30},
	}
	if out := FormatSFSPoints(sfsPts); !strings.Contains(out, "+20.0%") {
		t.Fatalf("sfs gain missing:\n%s", out)
	}
}

// TestOverheadModelAccountsForGap: the component model must explain the
// measured NCache-vs-baseline CPU gap, or the breakdown is fiction.
func TestOverheadModelAccountsForGap(t *testing.T) {
	rep := points[OverheadReport](t, "overhead", quickOpts())
	if rep.AccountedPct < 70 || rep.AccountedPct > 130 {
		t.Fatalf("component model accounts for %.1f%% of the gap — accounting broken", rep.AccountedPct)
	}
}

// TestRegistryIsTheOneList: the registry is the only list of experiments.
// ncbench resolves -exp through Select and builds its help and its "unknown
// experiment" message from Usage; the root benchmark loop and both replay
// sweeps range over Experiments (replayRows only adds faulted variants).
func TestRegistryIsTheOneList(t *testing.T) {
	seen := map[string]bool{}
	var inAll []string
	for _, e := range Experiments {
		if e.Name == "" || e.Name == "all" || seen[e.Name] || e.Run == nil {
			t.Fatalf("bad registry entry %+v", e)
		}
		seen[e.Name] = true
		if got := Select(e.Name); len(got) != 1 || got[0].Name != e.Name {
			t.Errorf("Select(%q) = %+v", e.Name, got)
		}
		if !strings.Contains(","+Usage()+",", ","+e.Name+",") {
			t.Errorf("Usage() %q omits %s", Usage(), e.Name)
		}
		if e.InAll {
			inAll = append(inAll, e.Name)
		}
	}
	var all []string
	for _, e := range Select("all") {
		all = append(all, e.Name)
	}
	if !reflect.DeepEqual(all, inAll) || !strings.HasSuffix(Usage(), ",all") {
		t.Errorf("-exp all = %v, want the InAll entries %v in registry order", all, inAll)
	}
	if Select("no-such-experiment") != nil || Select("fig4,no-such-experiment") != nil {
		t.Error("Select resolves an unregistered name")
	}
	if got := Select("fig5b,fig4"); len(got) != 2 || got[0].Name != "fig5b" || got[1].Name != "fig4" {
		t.Errorf("Select of a list = %+v", got)
	}
	rows := replayRows()
	for i, e := range Experiments {
		if rows[i].name != e.Name || rows[i].fault != "" {
			t.Errorf("replay row %d = %+v, want %s", i, rows[i], e.Name)
		}
	}
	// The results gate regenerates every experiment that stores a file.
	gate, err := os.ReadFile("../../scripts/results-gate.sh")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range Experiments {
		if e.ResultFile != "" && !slices.Contains(strings.Fields(strings.ReplaceAll(string(gate), ";", " ")), e.Name) {
			t.Errorf("scripts/results-gate.sh does not regenerate %s (results/%s)", e.Name, e.ResultFile)
		}
	}
}
