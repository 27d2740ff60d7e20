package passthru

import (
	"testing"

	"ncache/internal/nfs"
)

// getattrFile issues one NFS GETATTR and returns the attributes.
func getattrFile(t *testing.T, cl *Cluster, c *nfs.Client, fh nfs.FH) nfs.Attr {
	t.Helper()
	var attr nfs.Attr
	got := false
	c.Getattr(fh, func(a nfs.Attr, err error) {
		if err != nil {
			t.Fatalf("Getattr: %v", err)
		}
		attr = a
		got = true
	})
	run(t, cl)
	if !got {
		t.Fatal("getattr did not complete")
	}
	return attr
}

// readdirRoot lists the root directory and asserts name is present.
func readdirRoot(t *testing.T, cl *Cluster, c *nfs.Client, name string) {
	t.Helper()
	got := false
	c.Readdir(nfs.RootFH(), func(names []string, err error) {
		if err != nil {
			t.Fatalf("Readdir: %v", err)
		}
		for _, n := range names {
			if n == name {
				got = true
			}
		}
	})
	run(t, cl)
	if !got {
		t.Fatalf("readdir did not list %q", name)
	}
}

// TestFaultControlPlaneLookupMount arms frame loss against the client link
// while only control-plane NFS traffic is in flight: repeated LOOKUP and
// GETATTR calls plus a fresh mount sequence (new client instance, root
// GETATTR, READDIR, LOOKUP) — the traffic the degradation suite previously
// left unarmed, exercising only the steady-state data path. Every call must
// be recovered by sunrpc retransmission with zero escaped errors: no
// timeouts, no wrong results, no calls left pending.
func TestFaultControlPlaneLookupMount(t *testing.T) {
	// 10% per-frame loss in both directions on the client link. Each RPC
	// try needs the request and the reply frames to survive, so roughly
	// one call in five loses a frame and must be retransmitted; with the
	// deterministic seed the retry budget (faultRPCTries) is never
	// exhausted.
	cl, _ := faultCluster(t, "drop:client0*:rate=0.1", 0)
	host := cl.Clients[0]

	// Mount and resolve once loss-free to establish the expected handle.
	fh := lookupFile(t, cl, "data.bin")
	cleanAttr := getattrFile(t, cl, host.NFS, fh)
	firstRPC := host.NFS.DatagramRPC()

	cl.Faults.Arm()

	// Repeated control-plane traffic under loss: every LOOKUP must resolve
	// to the same handle and every GETATTR must return the clean result.
	const rounds = 24
	for i := 0; i < rounds; i++ {
		if h := lookupFile(t, cl, "data.bin"); h != fh {
			t.Fatalf("round %d: lookup under frame loss returned %v, want %v", i, h, fh)
		}
		if a := getattrFile(t, cl, host.NFS, fh); a != cleanAttr {
			t.Fatalf("round %d: getattr under frame loss returned %+v, want %+v", i, a, cleanAttr)
		}
	}

	// Fresh mount sequence under loss: a brand-new client against the same
	// server NIC, then the mount-time control traffic — root GETATTR,
	// READDIR of the export, and the initial LOOKUP.
	nic := cl.App.Node.NICs()[0]
	if err := host.MountNFS(nic.Addr); err != nil {
		t.Fatalf("MountNFS under frame loss: %v", err)
	}
	host.NFS.SetRetransmit(faultRPCRTO, faultRPCTries)
	getattrFile(t, cl, host.NFS, nfs.RootFH())
	readdirRoot(t, cl, host.NFS, "data.bin")
	if h := lookupFile(t, cl, "data.bin"); h != fh {
		t.Fatal("fresh mount resolved a different file handle")
	}

	cl.Faults.Quiesce()

	// The injector must actually have dropped frames on the armed link...
	dropped := cl.Net.FaultDropped()
	for _, n := range host.Node.NICs() {
		dropped += n.Stats.FaultDropTx
	}
	if dropped == 0 {
		t.Fatal("frame-loss schedule armed but no frames were dropped")
	}
	// ...recovery must have gone through RPC retransmission, and no call
	// may have escaped as a timeout or been left pending. FaultCounters
	// only sees the current client, so sum both mounts explicitly.
	secondRPC := host.NFS.DatagramRPC()
	retrans := firstRPC.Retransmits + secondRPC.Retransmits
	timeouts := firstRPC.Timeouts + secondRPC.Timeouts
	if retrans == 0 {
		t.Fatal("no RPC retransmissions despite dropped control-plane frames")
	}
	if timeouts != 0 {
		t.Fatalf("%d control-plane calls escaped as timeouts", timeouts)
	}
	if p := firstRPC.Pending() + secondRPC.Pending(); p != 0 {
		t.Fatalf("%d control-plane calls still pending after quiesce", p)
	}
}
