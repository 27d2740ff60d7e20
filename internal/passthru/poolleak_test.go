package passthru

import (
	"bytes"
	"testing"

	"ncache/internal/simnet"
)

// TestPoolsDrainAfterWorkload is the leak check for the pooled zero-copy
// data path: after a mixed read/write workload drains, every node's pools —
// transmit and block — must have zero buffers outstanding (whatever the hot
// path borrowed, it gave back), and no pool may have seen a double-release.
// A buffer stays on the pool that made it, so a receiver's leak shows on the
// sender's pool. Under NCache the cache deliberately retains the buffers it
// received (§4.1), so the check drops the clean entries first; anything
// still outstanding after that is a true leak.
func TestPoolsDrainAfterWorkload(t *testing.T) {
	for _, mode := range []Mode{Original, NCache, Baseline} {
		t.Run(mode.String(), func(t *testing.T) {
			testPoolsDrain(t, mode, "")
		})
	}
}

// TestPoolsDrainUnderTCPLoss re-runs the leak check with frame loss on the
// app server's links. Every iSCSI segment rides TCP, so drops force the
// connection's retransmission queue to clone payload chains (owner
// "tcp.retransmit") and release them as acks advance; UDP RPC recovers via
// datagram retransmission at the same time. Zero outstanding buffers after
// the drain proves loss recovery never leaks.
func TestPoolsDrainUnderTCPLoss(t *testing.T) {
	for _, mode := range []Mode{Original, NCache} {
		t.Run(mode.String(), func(t *testing.T) {
			testPoolsDrain(t, mode, "drop:app*:rate=0.01")
		})
	}
}

func testPoolsDrain(t *testing.T, mode Mode, faultSpec string) {
	cl, _ := testClusterFaults(t, mode, false, faultSpec)
	fh := lookupFile(t, cl, "data.bin")
	if cl.Faults != nil {
		cl.Faults.Arm()
	}
	for i := 0; i < 6; i++ {
		readFile(t, cl, fh, uint64(i)*20000, 20000)
	}
	if mode == Original {
		// Writes mutate the disk image; exercise them where the
		// payload is real data end to end.
		writeFile(t, cl, fh, 8192, bytes.Repeat([]byte{0xAB}, 12288))
		readFile(t, cl, fh, 8192, 12288)
	}
	if cl.Faults != nil {
		cl.Faults.Quiesce()
		cl.Eng.Run()
		retrans, rtos, fastrtx, protoErrs, aborted := cl.TCPCounters()
		if retrans == 0 {
			t.Error("frame loss on the app links produced no TCP retransmissions")
		}
		t.Logf("tcp recovery: retrans=%d rtos=%d fastrtx=%d protoErrs=%d aborted=%d",
			retrans, rtos, fastrtx, protoErrs, aborted)
		if aborted != 0 {
			t.Errorf("loss recovery aborted %d connections", aborted)
		}
	}
	if cl.App.Module != nil {
		// Captured chains pin their buffers until eviction; drop the
		// clean entries so anything still outstanding is a true leak.
		if n := cl.App.Module.DropClean(); n == 0 {
			t.Fatal("ncache cached nothing during the workload")
		}
	}
	nodes := []*simnet.Node{cl.App.Node, cl.Storage.Node}
	for _, h := range cl.Clients {
		nodes = append(nodes, h.Node)
	}
	checkNodesDrained(t, nodes)
}

// checkNodesDrained reports every pool of the nodes that still has buffers
// outstanding.
func checkNodesDrained(t *testing.T, nodes []*simnet.Node) {
	t.Helper()
	for _, n := range nodes {
		for _, p := range n.Pools() {
			if got := p.Outstanding(); got != 0 {
				t.Errorf("pool %s leaked %d buffers (peak %d, allocs %d, reuses %d, owners %v)",
					p.Name(), got, p.Peak(), p.Allocs(), p.Reuses(), p.LeakReport())
			}
		}
	}
}
