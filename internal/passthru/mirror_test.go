package passthru

import (
	"bytes"
	"testing"

	"ncache/internal/extfs"
	"ncache/internal/simnet"
	"ncache/internal/storage"
)

// mirrorCluster brings up a single-target cluster replicated across two
// mirror arms, with a disarmed fault schedule aimed at the second arm's
// disks. count bounds the injected errors so recovery can complete and the
// event queue can drain (an arm failing forever keeps probing forever).
func mirrorCluster(t *testing.T, mode Mode, spec string) (*Cluster, extfs.FileSpec) {
	t.Helper()
	return formattedCluster(t, ClusterConfig{
		Mode:          mode,
		NumClients:    1,
		BlocksPerDisk: 16 * 1024,
		Arms:          2,
		FaultSpec:     spec,
		FaultSeed:     7,
	}, fileContent)
}

// armStats extracts the named arm's stats from the app server's volume.
func armStats(t *testing.T, cl *Cluster, name string) storage.ArmStats {
	t.Helper()
	for _, s := range cl.App.Volume.Stats() {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("no arm %q in %+v", name, cl.App.Volume.Stats())
	return storage.ArmStats{}
}

// TestFaultMirrorFailoverNoLostAcks is the availability clause of the
// mirrored lower path: with the second arm's disks failing hard, every
// client operation must still succeed off the surviving arm — the breaker
// ejects the dead arm, no acked write is lost, and no error escapes to the
// NFS client (every t.Fatalf inside writeFile/readFile enforces that).
func TestFaultMirrorFailoverNoLostAcks(t *testing.T) {
	cl, spec := mirrorCluster(t, NCache, "diskerr:s0m1.disk*:rate=1:count=60")
	fh := lookupFile(t, cl, "data.bin")

	const blocks = 8
	fresh := make([][]byte, blocks)
	cl.Faults.Arm()
	// Sync after every write: the flusher coalesces contiguous dirty blocks
	// into one lower write, and the breaker needs several distinct failing
	// legs to trip.
	for i := range fresh {
		fresh[i] = bytes.Repeat([]byte{0xC0 + byte(i)}, extfs.BlockSize)
		writeFile(t, cl, fh, uint64(i)*extfs.BlockSize, fresh[i])
		if err := syncCache(t, cl); err != nil {
			t.Fatalf("sync %d during arm outage: %v", i, err)
		}
	}
	st := armStats(t, cl, "t0m1")
	if st.Ejections == 0 {
		t.Fatalf("failing arm never ejected: %+v", st)
	}
	if got := armStats(t, cl, "t0m0"); got.Ejections != 0 {
		t.Fatalf("healthy arm ejected: %+v", got)
	}
	// Reads during the outage serve from the healthy arm.
	got := readFile(t, cl, fh, 0, blocks*extfs.BlockSize)
	for i := 0; i < blocks; i++ {
		if !bytes.Equal(got[i*extfs.BlockSize:(i+1)*extfs.BlockSize], fresh[i]) {
			t.Fatalf("block %d stale during outage", i)
		}
	}
	// The acked bytes sit on the healthy arm's physical disks.
	for i := 0; i < blocks; i++ {
		if !bytes.Equal(cl.StorageArms[0][0].Array.PeekBlock(spec.StartLBN+int64(i)), fresh[i]) {
			t.Fatalf("healthy arm missing acked block %d", i)
		}
	}

	cl.Faults.Quiesce()
	run(t, cl) // drains probes + resync now that the errors are spent
	if st = armStats(t, cl, "t0m1"); st.State != storage.ArmClosed {
		t.Fatalf("arm did not recover after fault quiesce: %+v", st)
	}
}

// TestMirrorResyncConverges checks the recovery protocol end to end: blocks
// written while an arm is ejected are dirty-logged, and once the arm heals
// the catch-up copy replays exactly those blocks so both physical replicas
// hold the acked bytes.
func TestMirrorResyncConverges(t *testing.T) {
	cl, spec := mirrorCluster(t, NCache, "diskerr:s0m1.disk*:rate=1:count=40")
	fh := lookupFile(t, cl, "data.bin")

	const blocks = 12
	fresh := make([][]byte, blocks)
	cl.Faults.Arm()
	for i := range fresh {
		fresh[i] = bytes.Repeat([]byte{0x80 + byte(i)}, extfs.BlockSize)
		writeFile(t, cl, fh, uint64(i)*extfs.BlockSize, fresh[i])
		if err := syncCache(t, cl); err != nil {
			t.Fatalf("sync %d during arm outage: %v", i, err)
		}
	}
	before := armStats(t, cl, "t0m1")
	if before.Ejections == 0 {
		t.Fatalf("outage never ejected the mirror arm: %+v", before)
	}

	cl.Faults.Quiesce()
	run(t, cl)
	after := armStats(t, cl, "t0m1")
	if after.State != storage.ArmClosed || after.DirtyBlocks != 0 {
		t.Fatalf("resync did not converge: %+v", after)
	}
	if after.Resyncs == 0 || after.ResyncBlocks == 0 {
		t.Fatalf("recovery closed the arm without copying: %+v", after)
	}
	// Both replicas now hold the bytes acked during the outage.
	for i := 0; i < blocks; i++ {
		lbn := spec.StartLBN + int64(i)
		for a := 0; a < 2; a++ {
			if !bytes.Equal(cl.StorageArms[0][a].Array.PeekBlock(lbn), fresh[i]) {
				t.Fatalf("arm %d block %d diverged after resync", a, i)
			}
		}
	}
}

// TestPoolsDrainMirror re-runs the buffer-leak check over the mirrored
// path: write fan-out and resync copies clone chains under the
// "storage.mirror" owner tag, and after failover + recovery every pool on
// every node (arm storage nodes included) must drain to zero.
func TestPoolsDrainMirror(t *testing.T) {
	cl, _ := mirrorCluster(t, NCache, "diskerr:s0m1.disk*:rate=1:count=40")
	fh := lookupFile(t, cl, "data.bin")

	cl.Faults.Arm()
	for i := 0; i < 6; i++ {
		writeFile(t, cl, fh, uint64(i)*extfs.BlockSize, bytes.Repeat([]byte{0xAB}, extfs.BlockSize))
	}
	if err := syncCache(t, cl); err != nil {
		t.Fatalf("sync: %v", err)
	}
	for i := 0; i < 6; i++ {
		readFile(t, cl, fh, uint64(i)*20000, 20000)
	}
	cl.Faults.Quiesce()
	run(t, cl)

	if cl.App.Module != nil {
		if n := cl.App.Module.DropClean(); n == 0 {
			t.Fatal("ncache cached nothing during the workload")
		}
	}
	nodes := []*simnet.Node{cl.App.Node}
	for _, arms := range cl.StorageArms {
		for _, ss := range arms {
			nodes = append(nodes, ss.Node)
		}
	}
	for _, h := range cl.Clients {
		nodes = append(nodes, h.Node)
	}
	checkNodesDrained(t, nodes)
}
