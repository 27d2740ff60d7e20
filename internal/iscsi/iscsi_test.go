package iscsi

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
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

func TestPDUEncodeFrameRoundTrip(t *testing.T) {
	payload := []byte("data segment contents going over the stream!")
	in := PDU{
		Op: OpSCSICmd, Final: true, ITT: 77, ExpectedLen: 4096, CmdSN: 3,
		Data: netbuf.ChainFromBytes(payload, 16),
	}
	in.CDB = [16]byte{0x28, 0, 0, 0, 1, 2}
	wire, err := in.EncodePool(nil)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	var got []PDU
	f := NewFramer(func(p PDU) { got = append(got, p) })
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
	var wire []byte
	var want []string
	for i := 0; i < 3; i++ {
		payload := bytes.Repeat([]byte{byte('a' + i)}, 100+i*37)
		want = append(want, string(payload))
		p := PDU{Op: OpDataIn, Final: true, ITT: uint32(i), Data: netbuf.ChainFromBytes(payload, 64)}
		c, err := p.EncodePool(nil)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		wire = append(wire, c.Flatten()...)
	}
	for _, chunk := range []int{1, 7, 48, 100, 1000} {
		var got []string
		f := NewFramer(func(p PDU) {
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
			f.Push(netbuf.ChainFromBytes(wire[off:end], 32))
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
	f := func(sizes []uint16, split uint8) bool {
		var wire []byte
		n := len(sizes)
		if n > 5 {
			n = 5
		}
		for i := 0; i < n; i++ {
			payload := make([]byte, int(sizes[i])%2000)
			p := PDU{Op: OpDataIn, ITT: uint32(i), Data: netbuf.ChainFromBytes(payload, 512)}
			c, err := p.EncodePool(nil)
			if err != nil {
				return false
			}
			wire = append(wire, c.Flatten()...)
		}
		chunk := int(split)%512 + 1
		count := 0
		fr := NewFramer(func(p PDU) {
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
			fr.Push(netbuf.ChainFromBytes(wire[off:end], 256))
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
	for _, n := range []int{1, 2, 3, 5, 47, 49} {
		payload := bytes.Repeat([]byte{0xAB}, n)
		p := PDU{Op: OpLoginReq, Final: true, ITT: 9, Data: netbuf.ChainFromBytes(payload, 16)}
		wire, err := p.EncodePool(nil)
		if err != nil {
			t.Fatalf("Encode(%d): %v", n, err)
		}
		if (wire.Len()-BHSLen)%4 != 0 {
			t.Fatalf("wire data segment for %d bytes not padded: total %d", n, wire.Len())
		}
		var got []byte
		f := NewFramer(func(q PDU) {
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
	big := netbuf.ChainFromBytes(nil, 16)
	// Fake an oversize length without allocating 16MB: use a tiny chain
	// but check the guard directly via DataLen path.
	p := PDU{Op: OpDataIn, Data: big}
	if _, err := p.EncodePool(nil); err != nil {
		t.Fatalf("small segment rejected: %v", err)
	}
}

func TestFramerBHSOnlyPDUs(t *testing.T) {
	// Back-to-back zero-payload PDUs (logout handshakes) frame cleanly.
	var wire []byte
	for i := 0; i < 4; i++ {
		p := PDU{Op: OpLogoutReq, Final: true, ITT: uint32(i)}
		c, err := p.EncodePool(nil)
		if err != nil {
			t.Fatal(err)
		}
		wire = append(wire, c.Flatten()...)
	}
	count := 0
	f := NewFramer(func(p PDU) {
		if p.ITT != uint32(count) {
			t.Fatalf("PDU order broken: %d", p.ITT)
		}
		count++
	})
	f.Push(netbuf.ChainFromBytes(wire, 13))
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
	if err := r.eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
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
	r.initiator.Write(100, netbuf.ChainFromBytes(want, netbuf.DefaultBufSize), false, func(err error) {
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
	if err := r.eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
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
	if err := r.eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
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
	if err := r.eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if gotErr == nil {
		t.Fatal("out-of-range read succeeded")
	}
	for _, c := range r.target.free {
		if c.buf != nil {
			t.Fatal("a refused READ sized a staging buffer")
		}
	}
}

// TestMalformedWriteRefused: a WRITE(10) whose Data-Out is not exactly the
// CDB's blocks, or whose range passes the device end, is answered with CHECK
// CONDITION before anything is staged, and no block is written — not the
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
			Data: netbuf.ChainFromBytes(payload, netbuf.DefaultBufSize),
		})
		if err := r.eng.Run(); err != nil {
			t.Fatalf("%s: Run: %v", tc.name, err)
		}
		if !called || !errors.Is(gotErr, ErrCheckCond) {
			t.Fatalf("%s: WRITE completed with %v (called %v), want CHECK CONDITION", tc.name, gotErr, called)
		}
		if r.target.BytesIn != 0 {
			t.Fatalf("%s: target staged %d bytes of a refused WRITE", tc.name, r.target.BytesIn)
		}
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
		if err := r.eng.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
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
		r.initiator.Write(int64(k*8), netbuf.ChainFromBytes(data, netbuf.DefaultBufSize), false, func(err error) {
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
	if err := r.eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if done != n {
		t.Fatalf("completed %d/%d", done, n)
	}
}

// TestTargetPayloadAllocFree: once the target's staging buffers, the array's
// request records and both nodes' buffer pools are primed, serving a 64 KB
// READ or WRITE allocates no payload-sized memory on the host — the whole
// round trip (initiator, TCP segments, PDUs, target, array) stays under a
// quarter of the payload per command (5-8 KB measured), where the staging
// slab, the array's assembly slab and the members' slabs cost three
// payloads.
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
		if err := r.eng.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
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
		if perCmd > uint64(len(payload))/4 {
			t.Errorf("write=%v: %d B allocated per 64 KB command, want <= %d", write, perCmd, len(payload)/4)
		}
	}
}

// TestDebugModePoisonsStaging: under netbuf debug mode a command's staging
// buffer is poisoned and abandoned when the command hands it back, so a
// hand-back before the device's done (or before the copy into transmit
// buffers) would put poison on the wire — and the round trip still carries
// the written bytes. The initiator's command records are abandoned likewise
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
	r.initiator.Write(40, netbuf.ChainFromBytes(want, netbuf.DefaultBufSize), false, func(err error) {
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
	if err := r.eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("round trip mismatch with poisoned staging buffers")
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
