package storage

import (
	"bytes"
	"slices"
	"testing"

	"ncache/internal/blockdev"
	"ncache/internal/iscsi"
	"ncache/internal/netbuf"
	"ncache/internal/proto/eth"
	"ncache/internal/proto/ipv4"
	"ncache/internal/proto/tcp"
	"ncache/internal/sim"
	"ncache/internal/simnet"
)

// TestMirrorReadFailsOverWhenTargetKilled: a mirror over two real iSCSI
// targets, arm a's killed while four READs wait at its disk (one in service,
// the rest queued) and a fifth is on the wire. The fifth is what the
// connection retransmits until it aborts; the initiator then fails all five,
// each read completes from arm b with the right bytes, and arm a is ejected.
// The killed disk still serves the transfers it had queued, and the dead
// target neither answers them nor leaks their buffers: every pool of both
// nodes drains.
func TestMirrorReadFailsOverWhenTargetKilled(t *testing.T) {
	const blockSize = 4096
	eng := sim.NewEngine()
	nw := simnet.NewNetwork(eng, 5*sim.Microsecond)
	app := simnet.NewNode(eng, "app", simnet.DefaultProfile())
	if _, err := nw.Attach(app, 1, simnet.Gbps); err != nil {
		t.Fatal(err)
	}
	appTCP := tcp.NewTransport(ipv4.NewStack(app))
	var tgts []*simnet.Node
	var disks []*blockdev.MemDisk
	var inis []Initiator
	for i, name := range []string{"a", "b"} {
		node := simnet.NewNode(eng, "storage-"+name, simnet.DefaultProfile())
		if _, err := nw.Attach(node, eth.Addr(2+i), simnet.Gbps); err != nil {
			t.Fatal(err)
		}
		disk := blockdev.NewMemDisk(eng, name+".disk0", blockdev.Geometry{BlockSize: blockSize, NumBlocks: 1024}, blockdev.IDE2000())
		if _, err := iscsi.NewTarget(node, tcp.NewTransport(ipv4.NewStack(node)), disk); err != nil {
			t.Fatal(err)
		}
		ini := iscsi.NewInitiator(app, appTCP, 1)
		ini.Connect(eth.Addr(2+i), func(err error) {
			if err != nil {
				t.Fatalf("connect %s: %v", name, err)
			}
		})
		tgts, disks, inis = append(tgts, node), append(disks, disk), append(inis, ini)
	}
	eng.Run()
	m := NewMirror(app, []string{"a", "b"}, inis, PolicyPrimaryFirst)

	const reads, blocks = 5, 4
	want := make([]byte, reads*blocks*blockSize)
	for i := range want {
		want[i] = byte(i / blockSize)
	}
	m.WriteAt(0, app.TxPool.GetChain(want), false, func(err error) {
		if err != nil {
			t.Fatalf("write: %v", err)
		}
	})
	eng.Run()

	got := make([][]byte, reads)
	answered := 0
	read := func(i int) {
		m.ReadAt(int64(i*blocks), blocks, false, func(data *netbuf.Chain, err error) {
			if err != nil {
				t.Errorf("read %d: %v", i, err)
			} else {
				got[i] = data.Flatten()
				data.Release()
			}
			answered++
		})
	}
	for i := 0; i < reads-1; i++ {
		read(i)
	}
	// Past the commands' CPU and inside the first transfer's service time.
	eng.RunFor(500 * sim.Microsecond)
	if disks[0].Reads != 0 {
		t.Fatalf("arm a's disk finished %d reads before the kill, want 0", disks[0].Reads)
	}
	read(reads - 1)
	tgts[0].Kill()
	sent := tgts[0].NetTotals().PacketsTx
	// The connection aborts after its retransmissions time out; the breaker
	// then keeps probing the dead arm, so the run is bounded.
	eng.RunFor(20 * sim.Second)

	if answered != reads {
		t.Fatalf("%d of %d reads answered", answered, reads)
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i*blocks*blockSize:(i+1)*blocks*blockSize]) {
			t.Errorf("read %d returned the wrong bytes", i)
		}
	}
	st := m.Stats()
	if st[0].Ejections != 1 || st[0].State == ArmClosed {
		t.Errorf("arm a: %d ejections, state %v; want it ejected", st[0].Ejections, st[0].State)
	}
	if st[1].State != ArmClosed || st[1].Errors != 0 {
		t.Errorf("arm b: state %v, %d errors; want it closed and clean", st[1].State, st[1].Errors)
	}
	if disks[0].Reads != reads-1 {
		t.Errorf("arm a's disk served %d reads, want the %d it had queued", disks[0].Reads, reads-1)
	}
	if n := tgts[0].NetTotals().PacketsTx; n != sent {
		t.Errorf("the killed target sent %d frames after the kill", n-sent)
	}
	for _, p := range slices.Concat(tgts[0].Pools(), tgts[1].Pools(), app.Pools()) {
		if n := p.Outstanding(); n != 0 {
			t.Errorf("pool %s: %d buffers outstanding (owners %v)", p.Name(), n, p.LeakReport())
		}
	}
}
