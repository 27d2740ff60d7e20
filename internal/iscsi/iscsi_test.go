package iscsi

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"ncache/internal/blockdev"
	"ncache/internal/netbuf"
	"ncache/internal/proto/eth"
	"ncache/internal/proto/ipv4"
	"ncache/internal/proto/tcp"
	"ncache/internal/scsi"
	"ncache/internal/sim"
	"ncache/internal/simnet"
	"ncache/internal/storage"
)

// pduNode returns a node whose pools a PDU test encodes and frames on, as
// the initiator and target do on theirs.
func pduNode() *simnet.Node {
	return simnet.NewNode(sim.NewEngine(), "pdu", simnet.DefaultProfile())
}

// segChain copies p onto a pool of seg-byte buffers, to cut a stream or a
// data segment at arbitrary boundaries.
func segChain(p []byte, seg int) *netbuf.Chain {
	return netbuf.NewPool("seg", netbuf.DefaultHeadroom, seg, 0).GetChain(p)
}

func TestPDUEncodeFrameRoundTrip(t *testing.T) {
	node := pduNode()
	payload := []byte("data segment contents going over the stream!")
	in := PDU{
		Op: OpSCSICmd, Final: true, ITT: 77, ExpectedLen: 4096, CmdSN: 3,
		Data: segChain(payload, 16),
	}
	in.CDB = [16]byte{0x28, 0, 0, 0, 1, 2}
	wire, err := in.EncodePool(node.HdrPool)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	var got []PDU
	f := NewFramer(node.TxPool, func(p PDU) { got = append(got, p) })
	f.Push(wire)
	if len(got) != 1 {
		t.Fatalf("framed %d PDUs, want 1", len(got))
	}
	p := got[0]
	if p.Op != in.Op || p.ITT != 77 || p.ExpectedLen != 4096 || p.CmdSN != 3 || !p.Final {
		t.Fatalf("header mismatch: %+v", p)
	}
	if p.CDB != in.CDB {
		t.Fatalf("CDB mismatch")
	}
	if !bytes.Equal(p.Data.Flatten(), payload) {
		t.Fatalf("data mismatch: %q", p.Data.Flatten())
	}
	if f.Errors != 0 || f.stream.Len() != 0 {
		t.Fatalf("framer errors=%d buffered=%d", f.Errors, f.stream.Len())
	}
}

func TestFramerHandlesFragmentedStream(t *testing.T) {
	// Three PDUs delivered in arbitrary-size stream chunks.
	node := pduNode()
	var wire []byte
	var want []string
	for i := 0; i < 3; i++ {
		payload := bytes.Repeat([]byte{byte('a' + i)}, 100+i*37)
		want = append(want, string(payload))
		p := PDU{Op: OpDataIn, Final: true, ITT: uint32(i), Data: segChain(payload, 64)}
		c, err := p.EncodePool(node.HdrPool)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		wire = append(wire, c.Flatten()...)
	}
	for _, chunk := range []int{1, 7, 48, 100, 1000} {
		var got []string
		f := NewFramer(node.TxPool, func(p PDU) {
			if p.Data != nil {
				got = append(got, string(p.Data.Flatten()))
				p.Data.Release()
			}
		})
		for off := 0; off < len(wire); off += chunk {
			end := off + chunk
			if end > len(wire) {
				end = len(wire)
			}
			f.Push(segChain(wire[off:end], 32))
		}
		if len(got) != 3 {
			t.Fatalf("chunk %d: framed %d PDUs, want 3", chunk, len(got))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("chunk %d: PDU %d payload mismatch", chunk, i)
			}
		}
	}
}

func TestFramerPropertyAnySplit(t *testing.T) {
	node := pduNode()
	f := func(sizes []uint16, split uint8) bool {
		var wire []byte
		n := len(sizes)
		if n > 5 {
			n = 5
		}
		for i := 0; i < n; i++ {
			payload := make([]byte, int(sizes[i])%2000)
			p := PDU{Op: OpDataIn, ITT: uint32(i), Data: segChain(payload, 512)}
			c, err := p.EncodePool(node.HdrPool)
			if err != nil {
				return false
			}
			wire = append(wire, c.Flatten()...)
		}
		chunk := int(split)%512 + 1
		count := 0
		fr := NewFramer(node.TxPool, func(p PDU) {
			if int(p.ITT) != count {
				return
			}
			count++
			if p.Data != nil {
				p.Data.Release()
			}
		})
		for off := 0; off < len(wire); off += chunk {
			end := off + chunk
			if end > len(wire) {
				end = len(wire)
			}
			fr.Push(segChain(wire[off:end], 256))
		}
		return count == n && fr.Errors == 0 && fr.stream.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPDUDataSegmentPadding(t *testing.T) {
	// Login-style text payloads are rarely 4-aligned; padding must be
	// emitted on the wire and stripped by the framer.
	node := pduNode()
	for _, n := range []int{1, 2, 3, 5, 47, 49} {
		payload := bytes.Repeat([]byte{0xAB}, n)
		p := PDU{Op: OpLoginReq, Final: true, ITT: 9, Data: segChain(payload, 16)}
		wire, err := p.EncodePool(node.HdrPool)
		if err != nil {
			t.Fatalf("Encode(%d): %v", n, err)
		}
		if (wire.Len()-BHSLen)%4 != 0 {
			t.Fatalf("wire data segment for %d bytes not padded: total %d", n, wire.Len())
		}
		var got []byte
		f := NewFramer(node.TxPool, func(q PDU) {
			if q.Data != nil {
				got = q.Data.Flatten()
				q.Data.Release()
			}
		})
		f.Push(wire)
		if !bytes.Equal(got, payload) {
			t.Fatalf("padding round trip failed for %d bytes", n)
		}
		if f.stream.Len() != 0 {
			t.Fatalf("framer left %d bytes buffered", f.stream.Len())
		}
	}
}

func TestPDURejectsOversizeSegment(t *testing.T) {
	node := pduNode()
	big := segChain(nil, 16)
	// Fake an oversize length without allocating 16MB: use a tiny chain
	// but check the guard directly via DataLen path.
	p := PDU{Op: OpDataIn, Data: big}
	if _, err := p.EncodePool(node.HdrPool); err != nil {
		t.Fatalf("small segment rejected: %v", err)
	}
}

func TestFramerBHSOnlyPDUs(t *testing.T) {
	// Back-to-back zero-payload PDUs (logout handshakes) frame cleanly.
	node := pduNode()
	var wire []byte
	for i := 0; i < 4; i++ {
		p := PDU{Op: OpLogoutReq, Final: true, ITT: uint32(i)}
		c, err := p.EncodePool(node.HdrPool)
		if err != nil {
			t.Fatal(err)
		}
		wire = append(wire, c.Flatten()...)
	}
	count := 0
	f := NewFramer(node.TxPool, func(p PDU) {
		if p.ITT != uint32(count) {
			t.Fatalf("PDU order broken: %d", p.ITT)
		}
		count++
	})
	f.Push(segChain(wire, 13))
	if count != 4 {
		t.Fatalf("framed %d, want 4", count)
	}
}

// rig builds initiator-node <-> target-node with a RAID-0 backing store.
type rig struct {
	eng       *sim.Engine
	initNode  *simnet.Node
	tgtNode   *simnet.Node
	initiator *Initiator
	target    *Target
	array     *storage.RAID0
}

func newRig(t *testing.T) *rig {
	t.Helper()
	eng := sim.NewEngine()
	nw := simnet.NewNetwork(eng, 5*sim.Microsecond)
	initNode := simnet.NewNode(eng, "app", simnet.DefaultProfile())
	tgtNode := simnet.NewNode(eng, "storage", simnet.DefaultProfile())
	if _, err := nw.Attach(initNode, 1, simnet.Gbps); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Attach(tgtNode, 2, simnet.Gbps); err != nil {
		t.Fatal(err)
	}
	initTCP := tcp.NewTransport(ipv4.NewStack(initNode))
	tgtTCP := tcp.NewTransport(ipv4.NewStack(tgtNode))

	disks := make([]*blockdev.MemDisk, 4)
	for i := range disks {
		disks[i] = blockdev.NewMemDisk(eng, "d", blockdev.Geometry{BlockSize: 4096, NumBlocks: 4096}, blockdev.IDE2000())
	}
	array, err := storage.NewRAID0(disks, 16)
	if err != nil {
		t.Fatal(err)
	}
	target, err := NewTarget(tgtNode, tgtTCP, array)
	if err != nil {
		t.Fatal(err)
	}
	ini := NewInitiator(initNode, initTCP, eth.Addr(1))
	return &rig{
		eng: eng, initNode: initNode, tgtNode: tgtNode,
		initiator: ini, target: target, array: array,
	}
}

func (r *rig) connect(t *testing.T) {
	t.Helper()
	ok := false
	r.initiator.Connect(eth.Addr(2), func(err error) {
		if err != nil {
			t.Errorf("Connect: %v", err)
			return
		}
		ok = true
	})
	r.eng.Run()
	if !ok {
		t.Fatal("login did not complete")
	}
}

func TestLoginDiscoversGeometry(t *testing.T) {
	r := newRig(t)
	r.connect(t)
	g := r.initiator.Geometry()
	if g.BlockSize != 4096 || g.NumBlocks != 4*4096 {
		t.Fatalf("geometry = %+v", g)
	}
}

func TestWriteThenReadRoundTrip(t *testing.T) {
	r := newRig(t)
	r.connect(t)
	want := make([]byte, 8*4096)
	rand.New(rand.NewSource(3)).Read(want)
	var got []byte
	r.initiator.Write(100, r.initNode.TxPool.GetChain(want), false, func(err error) {
		if err != nil {
			t.Errorf("Write: %v", err)
			return
		}
		r.initiator.Read(100, 8, false, func(data *netbuf.Chain, err error) {
			if err != nil {
				t.Errorf("Read: %v", err)
				return
			}
			got = data.Flatten()
			data.Release()
		})
	})
	r.eng.Run()
	if !bytes.Equal(got, want) {
		t.Fatalf("round trip mismatch: got %d bytes", len(got))
	}
	if r.target.ReadCmds != 1 || r.target.WriteCmds != 1 {
		t.Fatalf("target cmds = %d/%d", r.target.ReadCmds, r.target.WriteCmds)
	}
	if len(r.initiator.pending) != 0 {
		t.Fatalf("pending = %d", len(r.initiator.pending))
	}
}

func TestReadSynthesizedBlocks(t *testing.T) {
	r := newRig(t)
	for _, d := range r.array.Disks() {
		d.Synthesize = func(lbn int64, dst []byte) {
			for i := range dst {
				dst[i] = byte(lbn * 7)
			}
		}
	}
	r.connect(t)
	var got []byte
	r.initiator.Read(0, 1, false, func(data *netbuf.Chain, err error) {
		if err != nil {
			t.Errorf("Read: %v", err)
			return
		}
		got = data.Flatten()
		data.Release()
	})
	r.eng.Run()
	if len(got) != 4096 || got[0] != 0 {
		t.Fatalf("synthesized read wrong: %d bytes", len(got))
	}
}

func TestOutOfRangeReadFails(t *testing.T) {
	r := newRig(t)
	r.connect(t)
	var gotErr error
	r.initiator.Read(1<<20, 1, false, func(data *netbuf.Chain, err error) {
		gotErr = err
		if data != nil {
			data.Release()
		}
	})
	r.eng.Run()
	if gotErr == nil {
		t.Fatal("out-of-range read succeeded")
	}
	if extents := r.tgtNode.Pools()[3:]; len(extents) != 0 {
		t.Fatalf("a refused READ took an extent from %s", extents[0].Name())
	}
}

// TestCommandOnAbortedConnectionFails: once the target is gone and the
// connection has given up retransmitting, a new command fails at once with
// the transport's error instead of waiting for an answer.
func TestCommandOnAbortedConnectionFails(t *testing.T) {
	r := newRig(t)
	r.connect(t)
	r.tgtNode.Kill()
	// The first READ after the kill is what the connection retransmits until
	// it aborts.
	r.initiator.Read(0, 1, false, func(data *netbuf.Chain, err error) { data.Release() })
	r.eng.Run()
	var gotErr error
	r.initiator.Read(0, 1, false, func(data *netbuf.Chain, err error) {
		gotErr = err
		data.Release()
	})
	r.eng.Run()
	if !errors.Is(gotErr, tcp.ErrConnClosed) {
		t.Fatalf("READ on an aborted connection: %v, want %v", gotErr, tcp.ErrConnClosed)
	}
}

// TestMalformedWriteRefused: a WRITE(10) whose Data-Out is not exactly the
// CDB's blocks, or whose range passes the device end, is answered with CHECK
// CONDITION before an extent is taken, and no block is written — not the
// CDB's, and not the one after it that the surplus data would reach.
func TestMalformedWriteRefused(t *testing.T) {
	r := newRig(t)
	r.connect(t)
	last := r.initiator.Geometry().NumBlocks - 1
	for _, tc := range []struct {
		name   string
		lba    int64
		blocks uint16
		data   int
	}{
		{"surplus data", 10, 1, 2},
		{"short data", 10, 2, 1},
		{"past the end", last, 2, 2},
	} {
		var gotErr error
		called := false
		tk := r.initiator.task()
		tk.write = true
		tk.onDone = func(err error) { gotErr, called = err, true }
		cdb := scsi.CDB{Op: scsi.OpWrite10, LBA: uint32(tc.lba), Blocks: tc.blocks}.Encode()
		payload := bytes.Repeat([]byte{0xEE}, tc.data*4096)
		r.initiator.send(tk, PDU{
			Op: OpSCSICmd, Final: true, ExpectedLen: uint32(len(payload)),
			CmdSN: r.initiator.allocCmdSN(), CDB: cdb,
			Data: r.initNode.TxPool.GetChain(payload),
		})
		r.eng.Run()
		if !called || !errors.Is(gotErr, ErrCheckCond) {
			t.Fatalf("%s: WRITE completed with %v (called %v), want CHECK CONDITION", tc.name, gotErr, called)
		}
		if r.target.BytesIn != 0 {
			t.Fatalf("%s: target stored %d bytes of a refused WRITE", tc.name, r.target.BytesIn)
		}
	}
	if extents := r.tgtNode.Pools()[3:]; len(extents) != 0 {
		t.Fatalf("a refused WRITE took an extent from %s", extents[0].Name())
	}
	for _, lbn := range []int64{10, 11, last} {
		var got []byte
		r.initiator.Read(lbn, 1, false, func(data *netbuf.Chain, err error) {
			if err != nil {
				t.Errorf("Read %d: %v", lbn, err)
				return
			}
			got = data.Flatten()
			data.Release()
		})
		r.eng.Run()
		if bytes.Contains(got, []byte{0xEE}) {
			t.Fatalf("block %d was written by a refused WRITE", lbn)
		}
	}
}

func TestConcurrentCommands(t *testing.T) {
	r := newRig(t)
	r.connect(t)
	const n = 16
	done := 0
	for k := 0; k < n; k++ {
		k := k
		data := bytes.Repeat([]byte{byte(k)}, 4096)
		r.initiator.Write(int64(k*8), r.initNode.TxPool.GetChain(data), false, func(err error) {
			if err != nil {
				t.Errorf("Write %d: %v", k, err)
				return
			}
			r.initiator.Read(int64(k*8), 1, false, func(got *netbuf.Chain, err error) {
				if err != nil {
					t.Errorf("Read %d: %v", k, err)
					return
				}
				if got.Flatten()[0] != byte(k) {
					t.Errorf("block %d content wrong", k)
				}
				got.Release()
				done++
			})
		})
	}
	r.eng.Run()
	if done != n {
		t.Fatalf("completed %d/%d", done, n)
	}
}

// TestTargetPayloadAllocFree: once the target's extent pool, the array's
// request records and both nodes' buffer pools are primed, serving a 64 KB
// READ or WRITE allocates nothing of payload scale on the host: the whole
// round trip (initiator, TCP segments, PDUs, target, array) stays under
// 256 B per command (16 B measured), so one MTU buffer, disk block or
// extent allocated per command fails it.
func TestTargetPayloadAllocFree(t *testing.T) {
	if netbuf.DebugEnabled() {
		t.Skip("nothing is recycled in debug mode")
	}
	r := newRig(t)
	r.connect(t)
	const blocks = 16
	payload := make([]byte, blocks*4096)
	rand.New(rand.NewSource(9)).Read(payload)
	round := func(write bool) {
		for k := 0; k < 4; k++ { // four commands in flight
			lba := int64(k * 64)
			if write {
				data := r.initNode.TxPool.GetChain(payload)
				r.initiator.Write(lba, data, false, func(err error) {
					if err != nil {
						t.Errorf("Write: %v", err)
					}
				})
				continue
			}
			r.initiator.Read(lba, blocks, false, func(data *netbuf.Chain, err error) {
				if err != nil {
					t.Errorf("Read: %v", err)
					return
				}
				data.Release()
			})
		}
		r.eng.Run()
	}
	for _, write := range []bool{true, false} {
		for i := 0; i < 8; i++ {
			round(write) // prime
		}
		const rounds = 16
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			round(write)
		}
		runtime.ReadMemStats(&after)
		perCmd := (after.TotalAlloc - before.TotalAlloc) / (rounds * 4)
		t.Logf("write=%v: %d B allocated per 64 KB command", write, perCmd)
		if perCmd > 256 {
			t.Errorf("write=%v: %d B allocated per 64 KB command, want <= 256", write, perCmd)
		}
	}
}

// TestDebugModePoisonsStaging: under netbuf debug mode the target's command
// records are abandoned when they retire, and the round trip still carries
// the written bytes through the extents the target lands them in. The
// initiator's command records are abandoned likewise
// (the READ below is issued from the WRITE's completion, where a recycled
// record would be taken again), and a second completion panics.
func TestDebugModePoisonsStaging(t *testing.T) {
	was := netbuf.DebugEnabled()
	netbuf.SetDebug(true)
	defer netbuf.SetDebug(was)
	r := newRig(t)
	r.connect(t)
	want := make([]byte, 8*4096)
	rand.New(rand.NewSource(4)).Read(want)
	var got []byte
	r.initiator.Write(40, r.initNode.TxPool.GetChain(want), false, func(err error) {
		if err != nil {
			t.Errorf("Write: %v", err)
			return
		}
		r.initiator.Read(40, 8, false, func(data *netbuf.Chain, err error) {
			if err != nil {
				t.Errorf("Read: %v", err)
				return
			}
			got = data.Flatten()
			data.Release()
		})
	})
	r.eng.Run()
	if !bytes.Equal(got, want) {
		t.Fatal("round trip mismatch in debug mode")
	}
	if len(r.target.free) != 0 || len(r.initiator.free) != 0 {
		t.Fatalf("debug mode recycled %d target and %d initiator command records", len(r.target.free), len(r.initiator.free))
	}
	cmd := r.initiator.task()
	cmd.finish(nil, nil)
	defer func() {
		if p := recover(); p == nil || !strings.Contains(p.(string), "retired twice") {
			t.Errorf("second completion of a command: recovered %v, want a panic mentioning \"retired twice\"", p)
		}
	}()
	cmd.finish(nil, nil)
}

// TestTargetDataInIsViewsOfOneExtent: a READ's blocks land in one extent of
// the target node's pool for its size, and the Data-In chain is windows onto
// that extent, cut where TxPool.GetChain cuts a copy of the same bytes. TCP
// segmentation and NCache's per-buffer substitution charge count those
// windows, so no simulated number depends on the extent.
func TestTargetDataInIsViewsOfOneExtent(t *testing.T) {
	const blocks = 5 // 20,480 bytes: windows of 1,500 and a short last one
	eng := sim.NewEngine()
	node := simnet.NewNode(eng, "storage", simnet.DefaultProfile())
	disk := blockdev.NewMemDisk(eng, "d", blockdev.Geometry{BlockSize: 4096, NumBlocks: 64}, blockdev.IDE2000())
	want := make([]byte, blocks*4096)
	rand.New(rand.NewSource(21)).Read(want)
	for i := range int64(blocks) {
		disk.PokeBlock(8+i, want[i*4096:(i+1)*4096])
	}
	tg := &Target{node: node, dev: disk}
	c := (&session{target: tg}).command(1, scsi.CDB{Op: scsi.OpRead10, LBA: 8, Blocks: blocks})
	var lens []int
	var sent []byte
	c.send = func() {
		for _, w := range c.data.Bufs() {
			lens = append(lens, w.Len())
		}
		sent = c.data.Flatten()
		if &c.data.Bufs()[0].Bytes()[0] != &c.vec[0][0] {
			t.Error("the Data-In chain does not alias the extent the device filled")
		}
		if n := node.ExtentPool(len(want)).Outstanding(); n != 1 {
			t.Errorf("%d extents outstanding at send, want 1", n)
		}
		c.data.Release()
	}
	c.read()
	eng.Run()
	if !bytes.Equal(sent, want) {
		t.Fatal("Data-In payload differs from the disk's blocks")
	}
	ref := node.TxPool.GetChain(want)
	var refLens []int
	for _, w := range ref.Bufs() {
		refLens = append(refLens, w.Len())
	}
	ref.Release()
	if !slices.Equal(lens, refLens) {
		t.Errorf("Data-In windows %v, want TxPool.GetChain's %v", lens, refLens)
	}
}

// TestTargetExtentsReturnAfterRoundTrip: a WRITE is gathered into an extent
// and a READ of the same blocks lands in one from the same pool; the READ's
// extent stays out while the initiator holds the data, and every pool of
// both nodes is drained once it lets go.
func TestTargetExtentsReturnAfterRoundTrip(t *testing.T) {
	r := newRig(t)
	r.connect(t)
	const blocks = 5
	want := make([]byte, blocks*4096)
	rand.New(rand.NewSource(22)).Read(want)
	ext := r.tgtNode.ExtentPool(len(want))
	var got []byte
	r.initiator.Write(100, r.initNode.TxPool.GetChain(want), false, func(err error) {
		if err != nil {
			t.Errorf("Write: %v", err)
			return
		}
		r.initiator.Read(100, blocks, false, func(data *netbuf.Chain, err error) {
			if err != nil {
				t.Errorf("Read: %v", err)
				return
			}
			if n := ext.Outstanding(); n != 1 {
				t.Errorf("%d extents outstanding while the initiator holds the data, want 1", n)
			}
			got = data.Flatten()
			data.Release()
		})
	})
	r.eng.Run()
	if !bytes.Equal(got, want) {
		t.Fatal("round trip mismatch")
	}
	if ext.Allocs() != 1 || ext.Reuses() != 1 {
		t.Errorf("extent pool: %d made, %d reused for one WRITE then one READ, want 1 and 1", ext.Allocs(), ext.Reuses())
	}
	for _, p := range slices.Concat(r.tgtNode.Pools(), r.initNode.Pools()) {
		if n := p.Outstanding(); n != 0 {
			t.Errorf("pool %s: %d buffers outstanding after the round trip (owners %v)", p.Name(), n, p.LeakReport())
		}
	}
}

// TestTargetKillReleasesIssuedRead: a READ's Data-In chain exists from the
// issue on, so a Node.Kill between issue and send returns its extent — once
// the disk, which the kill does not stop, is done filling it — and leaves
// every pool of the node drained, whether the kill comes while the disk
// fills the extent or while the copies are charged, in either netbuf mode.
func TestTargetKillReleasesIssuedRead(t *testing.T) {
	was := netbuf.DebugEnabled()
	defer netbuf.SetDebug(was)
	for _, debug := range []bool{false, true} {
		for _, afterDisk := range []bool{false, true} {
			netbuf.SetDebug(debug)
			eng := sim.NewEngine()
			node := simnet.NewNode(eng, "storage", simnet.DefaultProfile())
			disk := blockdev.NewMemDisk(eng, "d", blockdev.Geometry{BlockSize: 4096, NumBlocks: 64}, blockdev.IDE2000())
			tg := &Target{node: node, dev: disk}
			c := (&session{target: tg}).command(1, scsi.CDB{Op: scsi.OpRead10, LBA: 8, Blocks: 4})
			c.send = func() { t.Errorf("debug=%v afterDisk=%v: a killed READ was answered", debug, afterDisk) }
			c.read()
			ext := node.ExtentPool(4 * 4096)
			for afterDisk && c.ext != nil {
				eng.RunFor(10 * sim.Microsecond)
			}
			if n := ext.Outstanding(); n != 1 {
				t.Fatalf("debug=%v afterDisk=%v: %d extents outstanding before the kill, want 1", debug, afterDisk, n)
			}
			node.Kill()
			eng.Run()
			for _, p := range node.Pools() {
				if n := p.Outstanding(); n != 0 {
					t.Errorf("debug=%v afterDisk=%v: pool %s: %d buffers outstanding after the kill (owners %v)",
						debug, afterDisk, p.Name(), n, p.LeakReport())
				}
			}
		}
	}
}
