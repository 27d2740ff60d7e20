package passthru

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"ncache/internal/controlplane"
	"ncache/internal/extfs"
	"ncache/internal/netbuf"
	"ncache/internal/nfs"
	"ncache/internal/simnet"
	"ncache/internal/storage"
)

// scaleCluster brings up an N-server × M-target NCache cluster with one
// preformatted file and a disarmed fault injector.
func scaleCluster(t *testing.T, servers, targets int, faultSpec string) (*Cluster, extfs.FileSpec) {
	t.Helper()
	cl, err := NewCluster(ClusterConfig{
		Mode:          NCache,
		NumServers:    servers,
		NumTargets:    targets,
		NumClients:    2,
		BlocksPerDisk: 32 * 1024,
		FaultSpec:     faultSpec,
		FaultSeed:     7,
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	fmtr, err := extfs.Format(cl.DirectAccess(), 1024)
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	fs := addDataFile(t, cl, fmtr)
	if err := fmtr.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := cl.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return cl, fs
}

// addDataFile adds the 64-block data.bin. On a sharded cluster its first 8
// blocks sit below the first range boundary, on target 0, and the rest above
// it, on target 1: an unwritten pad file goes in front (the disks are sparse:
// only its indirect block is stored).
func addDataFile(t *testing.T, cl *Cluster, fmtr *extfs.Formatter) extfs.FileSpec {
	t.Helper()
	if cl.Targets != nil {
		probe, err := fmtr.AddFile("pad0", extfs.BlockSize, nil)
		if err != nil {
			t.Fatalf("AddFile: %v", err)
		}
		// The pad's data is followed by its indirect block.
		n := storage.DefaultRangeBlocks - 8 - (probe.StartLBN + 1) - 1
		if _, err := fmtr.AddFile("pad", uint64(n)*extfs.BlockSize, nil); err != nil {
			t.Fatalf("AddFile: %v", err)
		}
	}
	fs, err := fmtr.AddFile("data.bin", 64*extfs.BlockSize, fileContent)
	if err != nil {
		t.Fatalf("AddFile: %v", err)
	}
	if cl.Targets != nil && cl.Targets.TargetOf(fs.StartLBN) == cl.Targets.TargetOf(fs.StartLBN+fs.Blocks-1) {
		t.Fatalf("data.bin at LBNs %d+%d sits on one target", fs.StartLBN, fs.Blocks)
	}
	return fs
}

// TestNewClusterAddressPlan: a cluster the fabric's address plan cannot hold
// is refused when it is configured, by an error naming the bound, not
// discovered as two nodes claiming one address. Server address blocks end at
// ControlAddr (28 servers); storage nodes, one per target per mirror arm, end
// at ServerAddr (15).
func TestNewClusterAddressPlan(t *testing.T) {
	for _, tc := range []struct {
		name                   string
		servers, targets, arms int
		bound                  int // 0: the cluster builds
	}{
		{"28 servers", 28, 1, 1, 0},
		{"29 servers", 29, 1, 1, 28},
		{"15 storage nodes", 2, 5, 3, 0},
		{"16 storage nodes", 2, 8, 2, 15},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewCluster(ClusterConfig{NumServers: tc.servers, NumTargets: tc.targets, Arms: tc.arms, BlocksPerDisk: 1024})
			switch {
			case tc.bound == 0 && err != nil:
				t.Fatalf("NewCluster: %v, want a cluster", err)
			case tc.bound != 0 && (err == nil || !strings.Contains(err.Error(), fmt.Sprintf("at most %d ", tc.bound))):
				t.Fatalf("NewCluster: err = %v, want one naming the limit of %d", err, tc.bound)
			}
		})
	}
}

// TestFaultRoutingSurvivesControlPlaneLoss: clients place files by
// arithmetic over the server count, so routing needs no control plane. With
// every frame into the control-plane node dropped from the moment a
// two-server cluster is up, a routed client reads every file once: no route
// fails, every read is answered, and nothing was even sent to the control
// plane.
func TestFaultRoutingSurvivesControlPlaneLoss(t *testing.T) {
	cl, _ := scaleCluster(t, 2, 2, "drop:cp.rx:rate=1")
	names := []string{"pad0", "pad", "data.bin"}
	fhs := make([]nfs.FH, len(names))
	for i, name := range names {
		fhs[i] = lookupFile(t, cl, name)
	}
	sc, err := cl.NewScaleClient(cl.Clients[1])
	if err != nil {
		t.Fatalf("NewScaleClient: %v", err)
	}
	cl.Faults.Arm()

	var routeErrs, reads int
	for _, fh := range fhs {
		fh := fh
		sc.Route(fh, func(c *nfs.Client, err error) {
			if err != nil {
				routeErrs++
				return
			}
			c.Read(fh, 0, extfs.BlockSize, func(ch *netbuf.Chain, _ nfs.Attr, err error) {
				if err != nil {
					t.Errorf("routed read: %v", err)
					return
				}
				ch.Release()
				reads++
			})
		})
	}
	run(t, cl)
	if routeErrs != 0 || reads != len(fhs) {
		t.Fatalf("%d of %d routes failed, %d reads answered", routeErrs, len(fhs), reads)
	}
	var dropped uint64
	for _, r := range cl.Faults.Report() {
		dropped += r.Injected
	}
	if dropped != 0 || cl.Control.Stats != (controlplane.Stats{}) {
		t.Fatalf("routing sent the control plane %d frames (stats %+v), want none", dropped, cl.Control.Stats)
	}
}

// readVia reads through a specific front-end server's client.
func readVia(t *testing.T, cl *Cluster, c *nfs.Client, fh nfs.FH, off uint64, n int) []byte {
	t.Helper()
	var data []byte
	c.Read(fh, off, n, func(ch *netbuf.Chain, _ nfs.Attr, err error) {
		if err != nil {
			t.Fatalf("Read via %v: %v", c, err)
		}
		data = ch.Flatten()
		ch.Release()
	})
	run(t, cl)
	return data
}

// writeVia writes through a specific front-end server's client.
func writeVia(t *testing.T, cl *Cluster, c *nfs.Client, fh nfs.FH, off uint64, p []byte) {
	t.Helper()
	okd := false
	c.WriteBytes(fh, off, p, func(n int, _ nfs.Attr, err error) {
		if err != nil {
			t.Fatalf("Write: %v", err)
		}
		if n != len(p) {
			t.Fatalf("short write: %d", n)
		}
		okd = true
	})
	run(t, cl)
	if !okd {
		t.Fatal("write did not complete")
	}
}

// syncApp flushes one server's buffer cache to completion.
func syncApp(t *testing.T, cl *Cluster, app *AppServer) error {
	t.Helper()
	var serr error
	done := false
	app.Cache.Sync(func(err error) { serr, done = err, true })
	run(t, cl)
	if !done {
		t.Fatal("sync did not complete")
	}
	return serr
}

// checkRemapsDrained: at quiesce every LBN handed to an agent was announced
// or abandoned — none waits for a round that never comes — and the control
// plane has no fan-out open.
func checkRemapsDrained(t *testing.T, cl *Cluster) {
	t.Helper()
	for _, app := range cl.Apps {
		if st := app.Agent.Stats; st.LBNsQueued != st.LBNsAnnounced+st.LBNsAbandoned {
			t.Errorf("%s: %d LBNs queued for announcement, %d announced, %d abandoned: the rest never left",
				app.Node.Name, st.LBNsQueued, st.LBNsAnnounced, st.LBNsAbandoned)
		}
	}
	if got := cl.Control.PendingRemaps(); got != 0 {
		t.Errorf("control plane: %d remaps still pending at quiesce", got)
	}
}

// testRemapInvariant drives the cross-server staleness scenario: server A
// caches blocks (by LBN, via reads), server B dirties and flushes the same
// blocks (FHO→LBN re-indexing on flush). After the remap protocol drains,
// A must serve the new bytes — a stale cached mapping surviving the remap
// is the bug the remap/invalidation protocol exists to prevent.
func testRemapInvariant(t *testing.T, faultSpec string) {
	cl, _ := scaleCluster(t, 2, 2, faultSpec)
	fh := lookupFile(t, cl, "data.bin")

	scA, err := cl.NewScaleClient(cl.Clients[0])
	if err != nil {
		t.Fatalf("NewScaleClient: %v", err)
	}
	viaA, viaB := scA.NFS[0], scA.NFS[1]
	appA, appB := cl.Apps[0], cl.Apps[1]

	const blocks = 8
	const span = blocks * extfs.BlockSize

	// A caches the old bytes (buffer cache + LBN-indexed ncache entries);
	// so does B.
	old := readVia(t, cl, viaA, fh, 0, span)
	if !bytes.Equal(old, expect(0, span)) {
		t.Fatalf("server A served wrong initial bytes")
	}
	if got := readVia(t, cl, viaB, fh, 0, span); !bytes.Equal(got, old) {
		t.Fatalf("server B disagrees with A before the write")
	}

	if cl.Faults != nil {
		cl.Faults.Arm()
	}

	// B overwrites every block and flushes: the write-out re-indexes the
	// dirty FHO entries by LBN and announces the remap only after the
	// iSCSI writes commit.
	fresh := make([][]byte, blocks)
	for i := range fresh {
		fresh[i] = bytes.Repeat([]byte{0xC0 + byte(i)}, extfs.BlockSize)
		writeVia(t, cl, viaB, fh, uint64(i)*extfs.BlockSize, fresh[i])
	}
	if err := syncApp(t, cl, appB); err != nil {
		t.Fatalf("sync via B: %v", err)
	}
	// Let retried remaps/invalidations drain fully before judging state.
	run(t, cl)
	if cl.Faults != nil {
		cl.Faults.Quiesce()
		run(t, cl)
	}

	if appB.Agent.Stats.RemapsSent == 0 {
		t.Fatal("flush announced no remaps")
	}
	if got, want := appB.Agent.Stats.RemapsAcked, appB.Agent.Stats.RemapsSent; got != want {
		t.Fatalf("remaps acked %d of %d", got, want)
	}
	if appB.Agent.Stats.RemapsAbandoned != 0 || cl.Control.Stats.Abandoned != 0 {
		t.Fatalf("remap protocol abandoned work: agent=%d cp=%d",
			appB.Agent.Stats.RemapsAbandoned, cl.Control.Stats.Abandoned)
	}
	if appA.Agent.Stats.InvalidationsApplied == 0 {
		t.Fatal("server A applied no invalidations")
	}
	checkRemapsDrained(t, cl)
	if faultSpec != "" {
		retried := appB.Agent.Stats.RemapRetries + cl.Control.Stats.InvalidationResends
		if retried == 0 {
			t.Fatal("frame loss injected but no remap/invalidation retries observed")
		}
		t.Logf("under %q: remap retries=%d invalidation resends=%d dups=%d",
			faultSpec, appB.Agent.Stats.RemapRetries,
			cl.Control.Stats.InvalidationResends, appA.Agent.Stats.InvalidationDups)
	}

	// The invariant: A serves the new bytes — no stale FHO→LBN mapping
	// (or stale buffer-cache block) survives the remap.
	got := readVia(t, cl, viaA, fh, 0, span)
	for i := 0; i < blocks; i++ {
		if !bytes.Equal(got[i*extfs.BlockSize:(i+1)*extfs.BlockSize], fresh[i]) {
			t.Fatalf("server A served stale block %d after the remap", i)
		}
	}
	// And B agrees with itself, trivially fresh.
	if got := readVia(t, cl, viaB, fh, 0, span); !bytes.Equal(got[:extfs.BlockSize], fresh[0]) {
		t.Fatalf("server B lost its own write")
	}
}

func TestScaleoutRemapInvariant(t *testing.T) {
	testRemapInvariant(t, "")
}

// TestScaleoutRemapInvariantUnderFrameLoss re-runs the staleness scenario
// with frames dropped on the control-plane node's links: remaps and
// invalidations must be retried (idempotently — duplicate deliveries
// re-ack without re-applying) and still converge to the fresh bytes.
func TestScaleoutRemapInvariantUnderFrameLoss(t *testing.T) {
	testRemapInvariant(t, "drop:cp*:rate=0.25")
}

// TestScaleoutPoolsDrain is the scale-out leak check behind the CI
// NCACHE_NETBUF_DEBUG pass: after routed traffic, cross-server flushes and
// the remap/invalidate exchange, every node in the 2×2 cluster — both
// front-ends, both targets, the control-plane node and the clients — must
// return every pooled buffer.
func TestScaleoutPoolsDrain(t *testing.T) {
	testScaleoutPoolsDrain(t, "")
}

// TestScaleoutPoolsDrainUnderFrameLoss re-runs the leak check with frames
// dropped on the front-end servers' links, so datagram RPC retransmission,
// TCP loss recovery and remap retries all release what they retained.
func TestScaleoutPoolsDrainUnderFrameLoss(t *testing.T) {
	testScaleoutPoolsDrain(t, "drop:app*:rate=0.05")
}

func testScaleoutPoolsDrain(t *testing.T, faultSpec string) {
	cl, _ := scaleCluster(t, 2, 2, faultSpec)
	fh := lookupFile(t, cl, "data.bin")
	scA, err := cl.NewScaleClient(cl.Clients[0])
	if err != nil {
		t.Fatalf("NewScaleClient: %v", err)
	}
	cl.Faults.Arm()

	// Routed reads (cold route cache exercises the resolver), direct reads
	// via both servers, writes and flushes via both servers.
	routedRead := func(off uint64, n int) {
		scA.Route(fh, func(c *nfs.Client, err error) {
			if err != nil {
				t.Errorf("route: %v", err)
				return
			}
			c.Read(fh, off, n, func(ch *netbuf.Chain, _ nfs.Attr, err error) {
				if err != nil {
					t.Errorf("routed read: %v", err)
					return
				}
				ch.Release()
			})
		})
	}
	routedRead(0, 16384)
	routedRead(32768, 16384)
	run(t, cl)
	for i, c := range scA.NFS {
		readVia(t, cl, c, fh, uint64(i)*8192, 16384)
		writeVia(t, cl, c, fh, uint64(i)*8192, bytes.Repeat([]byte{byte(0x30 + i)}, 8192))
	}
	for _, app := range cl.Apps {
		if err := syncApp(t, cl, app); err != nil {
			t.Fatalf("sync: %v", err)
		}
	}
	if cl.Faults != nil {
		cl.Faults.Quiesce()
	}
	run(t, cl)

	if cl.Faults != nil {
		var injected uint64
		for _, r := range cl.Faults.Report() {
			injected += r.Injected
		}
		if injected == 0 {
			t.Error("the injector dropped no frames; the faulted phase did not run")
		}
		if _, _, _, _, aborted := cl.TCPCounters(); aborted != 0 {
			t.Errorf("loss recovery aborted %d connections", aborted)
		}
	}

	for _, app := range cl.Apps {
		if app.Module != nil {
			app.Module.DropClean()
		}
		if app.InvalDropGiveups != 0 {
			t.Errorf("%s: %d invalidations gave up on pinned blocks", app.Node.Name, app.InvalDropGiveups)
		}
	}
	checkRemapsDrained(t, cl)
	nodes := []*simnet.Node{cl.Control.Node()}
	for _, app := range cl.Apps {
		nodes = append(nodes, app.Node)
	}
	for _, st := range cl.Storages {
		nodes = append(nodes, st.Node)
	}
	for _, h := range cl.Clients {
		nodes = append(nodes, h.Node)
	}
	checkNodesDrained(t, nodes)
}
