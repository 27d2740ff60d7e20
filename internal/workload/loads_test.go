package workload

import (
	"testing"

	"ncache/internal/extfs"
	"ncache/internal/nfs"
	"ncache/internal/passthru"
	"ncache/internal/sim"
)

// loadRig builds a small cluster with one file for load-driver tests.
func loadRig(t *testing.T) (*passthru.Cluster, nfs.FH, extfs.FileSpec) {
	t.Helper()
	cl, err := passthru.NewCluster(passthru.ClusterConfig{
		Mode:          passthru.NCache,
		NumClients:    2,
		BlocksPerDisk: 8 * 1024,
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	fmtr, err := extfs.Format(cl.Storage.Array, 256)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := fmtr.AddFile("load.dat", 2<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := fmtr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	var fh nfs.FH
	got := false
	cl.Clients[0].NFS.Lookup(nfs.RootFH(), "load.dat", func(h nfs.FH, _ nfs.Attr, err error) {
		if err != nil {
			t.Fatalf("Lookup: %v", err)
		}
		fh, got = h, true
	})
	cl.Eng.Run()
	if !got {
		t.Fatal("lookup incomplete")
	}
	return cl, fh, spec
}

// runWindow drives a load for 60 ms of virtual time, stops it, drains the
// engine and returns its counters.
func runWindow(t *testing.T, cl *passthru.Cluster, load Load) (ops, bytes, errs uint64) {
	t.Helper()
	load.Start()
	cl.Eng.RunFor(60 * sim.Millisecond)
	load.Stop()
	cl.Eng.Run()
	return load.Counters()
}

func TestNFSReadLoadSequentialAndHot(t *testing.T) {
	for _, pattern := range []AccessPattern{Sequential, HotSet} {
		cl, fh, spec := loadRig(t)
		load := &NFSReadLoad{
			Clients:     []*nfs.Client{cl.Clients[0].NFS, cl.Clients[1].NFS},
			FH:          fh,
			FileSize:    spec.Size,
			RequestSize: 16 * 1024,
			Pattern:     pattern,
			Concurrency: 4,
		}
		ops, bytes, errs := runWindow(t, cl, load)
		if errs != 0 {
			t.Fatalf("pattern %d: %d errors", pattern, errs)
		}
		if ops == 0 || bytes != ops*16*1024 {
			t.Fatalf("pattern %d: ops=%d bytes=%d", pattern, ops, bytes)
		}
	}
}

func TestNFSWriteLoad(t *testing.T) {
	cl, fh, spec := loadRig(t)
	load := &NFSWriteLoad{
		Clients:     []*nfs.Client{cl.Clients[0].NFS},
		FH:          fh,
		FileSize:    spec.Size,
		RequestSize: 8 * 1024,
		Concurrency: 4,
	}
	ops, _, errs := runWindow(t, cl, load)
	if errs != 0 || ops == 0 {
		t.Fatalf("ops=%d errors=%d", ops, errs)
	}
	if cl.App.Node.Reqs.WriteOps == 0 {
		t.Fatal("server saw no writes")
	}
}

func TestSFSLoadMix(t *testing.T) {
	cl, fh, spec := loadRig(t)
	load := &SFSLoad{
		Clients: []*nfs.Client{cl.Clients[0].NFS, cl.Clients[1].NFS},
		Cfg: SFSConfig{
			RegularDataPct: 50,
			Files:          []FileRef{{FH: fh, Size: spec.Size}},
			ScratchDir:     nfs.RootFH(),
			Concurrency:    4,
		},
	}
	if _, _, errs := runWindow(t, cl, load); errs != 0 {
		t.Fatalf("%d errors", errs)
	}
	reqs := cl.App.Node.Reqs
	if reqs.ReadOps == 0 || reqs.WriteOps == 0 || reqs.MetaOps == 0 {
		t.Fatalf("mix incomplete: %+v", reqs)
	}
	// 5:1 read:write among data ops (tolerance for sampling).
	ratio := float64(reqs.ReadOps) / float64(reqs.WriteOps)
	if ratio < 3 || ratio > 8 {
		t.Fatalf("read:write ratio = %.1f, want ≈5", ratio)
	}
}

func TestTracePlayerCounters(t *testing.T) {
	cl, fh, spec := loadRig(t)
	tr := GenSequentialRead(fh, spec.Size, 32*1024)
	load := &TracePlayer{
		Clients:     []*nfs.Client{cl.Clients[0].NFS},
		Trace:       tr,
		Concurrency: 4,
	}
	ops, bytes, errs := runWindow(t, cl, load)
	if errs != 0 || ops != uint64(len(tr.Ops)) || bytes != spec.Size {
		t.Fatalf("ops=%d bytes=%d errors=%d, want the whole trace once: %d ops, %d bytes",
			ops, bytes, errs, len(tr.Ops), spec.Size)
	}
}

func TestTracePlayerDoneFires(t *testing.T) {
	cl, fh, _ := loadRig(t)
	tr := GenSequentialRead(fh, 256*1024, 32*1024) // 8 ops
	fired := false
	load := &TracePlayer{
		Clients:     []*nfs.Client{cl.Clients[0].NFS},
		Trace:       tr,
		Concurrency: 3,
		Done:        func() { fired = true },
	}
	load.Start()
	cl.Eng.Run()
	if !fired {
		t.Fatal("Done never fired")
	}
	ops, bytes, errs := load.Counters()
	if ops != 8 || errs != 0 || bytes != 8*32*1024 {
		t.Fatalf("ops=%d bytes=%d errs=%d", ops, bytes, errs)
	}
}
