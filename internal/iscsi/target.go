package iscsi

import (
	"ncache/internal/blockdev"
	"ncache/internal/netbuf"
	"ncache/internal/proto/tcp"
	"ncache/internal/scsi"
	"ncache/internal/sim"
	"ncache/internal/simnet"
	"ncache/internal/trace"
)

// Target is the storage server: it accepts iSCSI sessions and serves SCSI
// block commands from a backing device (the RAID-0 array in the paper's
// testbed). Its data path is charged two physical copies in each direction
// on the storage server's CPU — the reference target's read()+send() and
// recv()+write() — which is what saturates first in the paper's all-miss
// experiments beyond 16 KB requests. What the host does to execute them is
// less: a command's blocks cross between the device's flat image and the
// wire in one extent from the node's pool of its size (simnet.ExtentPool).
// A READ's blocks land in it and leave as MTU-sized windows onto it, with no
// copy; a WRITE's payload is gathered into it off the wire.
type Target struct {
	node *simnet.Node
	dev  blockdev.Device
	// free holds the records of completed READ and WRITE commands. A target
	// lives on one node, so the list needs no lock.
	free netbuf.FreeList[*command]

	// WireFormat models the paper's §6 future-work proposal: disk-resident
	// data kept in a network-ready format, so the target moves blocks
	// between disk and NIC by descriptor (DMA) with no CPU copies — only
	// command and per-block processing remain.
	WireFormat bool

	// Stats.
	ReadCmds, WriteCmds uint64
	BytesIn             uint64
}

// NewTarget creates a target serving dev and listens on the iSCSI port.
func NewTarget(node *simnet.Node, tcpT *tcp.Transport, dev blockdev.Device) (*Target, error) {
	t := &Target{node: node, dev: dev}
	if err := tcpT.Listen(Port, t.accept); err != nil {
		return nil, err
	}
	return t, nil
}

// command is the recycled record of one READ(10) or WRITE(10): the session
// and task tag the response answers, the block range, its data chain (a
// WRITE's off the wire, a READ's Data-In windows), and the extent the device
// moves the blocks in, with the one-element vector Device calls take. Its
// continuations are bound once, when the record is first allocated. A
// record never leaves its Target and retires before its response is sent.
//
// A READ builds its Data-In chain when it is issued, so Node.Kill releases
// it like any chain the node holds; the record keeps a reference of its own
// on the extent until the device's done, so a kill cannot recycle an extent
// the disk is still filling. A WRITE's extent goes back to its pool when the
// record retires, after the device's done.
type command struct {
	netbuf.Recycled
	s      *session
	itt    uint32
	lba    int64
	blocks int
	inc    uint32 // the node's incarnation when a READ was issued
	data   *netbuf.Chain
	ext    *netbuf.Buf
	vec    [1][]byte

	read, send, write, store func()
	readDone, written        func(error)
}

// command takes a record off the free list for one command.
func (s *session) command(itt uint32, cdb scsi.CDB) *command {
	t := s.target
	c := t.free.Take()
	if c == nil {
		c = &command{}
		c.read, c.send, c.write, c.store = c.issueRead, c.sendData, c.checkWrite, c.storeData
		c.readDone, c.written = c.onRead, c.onWritten
	}
	c.s, c.itt, c.lba, c.blocks = s, itt, int64(cdb.LBA), int(cdb.Blocks)
	return c
}

// land takes an n-byte extent for the device to move the command's blocks
// in. Its bytes are whatever the previous tenant left: the device's read,
// or the WRITE's gather, overwrites all n.
func (c *command) land(n int) {
	c.ext = c.s.target.node.ExtentPool(n).GetFill(n)
	c.vec[0] = c.ext.Bytes()
}

// retire hands the record back to the target, with its extent if it still
// holds one; the caller has taken what the response needs.
func (c *command) retire() {
	if c.ext != nil {
		c.ext.Release()
	}
	c.itt, c.lba, c.blocks, c.data, c.ext, c.vec[0] = 0, 0, 0, nil, nil, nil
	c.s.target.free.Put(c)
}

// fail retires the record and reports CHECK CONDITION.
func (c *command) fail() {
	s, itt := c.s, c.itt
	c.retire()
	s.checkCondition(itt)
}

// accept wires a new session.
func (t *Target) accept(c *tcp.Conn) {
	s := &session{target: t, conn: c}
	s.framer = NewFramer(t.node.TxPool, s.handlePDU)
	c.SetReceiver(func(data *netbuf.Chain) { s.framer.Push(data) })
}

// session is one initiator connection.
type session struct {
	target *Target
	conn   *tcp.Conn
	framer *Framer
	statSN uint32
}

// reply encodes and sends a response PDU.
func (s *session) reply(p PDU) {
	chain, err := p.EncodePool(s.target.node.HdrPool)
	if err != nil {
		return
	}
	if err := s.conn.SendChain(chain); err != nil {
		chain.Release()
	}
}

// handlePDU serves one command.
func (s *session) handlePDU(p PDU) {
	t := s.target
	node := t.node
	trace.To(node.Eng, trace.LISCSI)
	switch p.Op {
	case OpLoginReq:
		p.Data.Release()
		node.Charge(node.Cost.ISCSIOpNs, func() {
			s.reply(PDU{Op: OpLoginResp, Final: true, ITT: p.ITT})
		})
	case OpLogoutReq:
		p.Data.Release()
		node.Charge(node.Cost.ISCSIOpNs, func() {
			s.reply(PDU{Op: OpLogoutResp, Final: true, ITT: p.ITT})
		})
	case OpSCSICmd:
		s.handleCommand(p)
	default:
		p.Data.Release()
	}
}

// handleCommand dispatches a SCSI command.
func (s *session) handleCommand(p PDU) {
	t := s.target
	node := t.node
	cdb, err := scsi.DecodeCDB(p.CDB[:])
	if err != nil {
		s.checkCondition(p.ITT)
		p.Data.Release()
		return
	}
	switch cdb.Op {
	case scsi.OpReadCapacity10:
		p.Data.Release()
		g := t.dev.Geometry()
		capData := scsi.ReadCapacityData{
			LastLBA:   uint32(g.NumBlocks - 1),
			BlockSize: uint32(g.BlockSize),
		}.Encode()
		// Capture the tag, not p: p's CDB is sliced above, so a closure
		// over p would move every command's PDU to the heap.
		itt := p.ITT
		node.Charge(node.Cost.ISCSIOpNs, func() {
			s.reply(PDU{
				Op: OpDataIn, Final: true, HasStatus: true,
				Status: scsi.StatusGood, ITT: itt,
				Data: node.TxPool.GetChain(capData[:]),
			})
		})

	case scsi.OpRead10:
		p.Data.Release()
		t.ReadCmds++
		perBlock := sim.Duration(cdb.Blocks) * node.Cost.TargetBlockNs
		node.Charge(node.Cost.ISCSIOpNs+perBlock, s.command(p.ITT, cdb).read)

	case scsi.OpWrite10:
		t.WriteCmds++
		c := s.command(p.ITT, cdb)
		c.data = p.Data
		if c.data == nil {
			c.data = node.TxPool.NewChain(0)
		}
		perBlock := sim.Duration(cdb.Blocks) * node.Cost.TargetBlockNs
		node.Charge(node.Cost.ISCSIOpNs+perBlock, c.write)

	default:
		p.Data.Release()
		s.checkCondition(p.ITT)
	}
}

// issueRead starts a READ once the per-command CPU is served: the blocks
// land in one extent, and the Data-In chain of MTU-sized windows onto it is
// built now, for Node.Kill to find.
func (c *command) issueRead() {
	t := c.s.target
	g := t.dev.Geometry()
	if c.lba+int64(c.blocks) > g.NumBlocks {
		// Refused before an extent is sized by it.
		c.fail()
		return
	}
	c.land(c.blocks * g.BlockSize)
	c.data = c.ext.Retain().Views(netbuf.DefaultBufSize)
	c.inc = t.node.Incarnation()
	t.dev.ReadBlocks(c.lba, c.vec[:], c.readDone)
}

// onRead charges the copies into network buffers once the blocks are off
// the platters; the rest is target CPU. The device is done with the extent,
// so the record's reference on it goes; a kill since the issue has released
// the Data-In chain, and the record retires without an answer.
func (c *command) onRead(err error) {
	t := c.s.target
	node := t.node
	trace.To(node.Eng, trace.LISCSI)
	c.ext.Release()
	c.ext = nil
	if c.inc != node.Incarnation() {
		c.retire()
		return
	}
	if err != nil {
		c.data.Release()
		c.fail()
		return
	}
	// Two physical copies, as in the reference target's read()+send()
	// data path: disk buffer into the target's cache, then into network
	// buffers. With wire-format storage (§6 future work) both vanish —
	// the blocks leave the disk already network-ready.
	if t.WireFormat {
		node.Charge(0, c.send)
		return
	}
	n := len(c.vec[0])
	node.Copies.AddPhysical(n)
	node.Charge(node.Cost.CopyCost(n), nil)
	node.ChargeCopy(n, c.send)
}

// sendData answers with the Data-In chain.
func (c *command) sendData() {
	s, itt, payload := c.s, c.itt, c.data
	c.retire()
	s.reply(PDU{
		Op: OpDataIn, Final: true, HasStatus: true,
		Status: scsi.StatusGood, ITT: itt,
		Data: payload,
	})
}

// checkWrite refuses a WRITE whose data segment is not exactly the CDB's
// blocks, or whose range passes the device end, before an extent is taken
// or anything copied; otherwise it charges the copies into the extent.
func (c *command) checkWrite() {
	t := c.s.target
	node := t.node
	g := t.dev.Geometry()
	n := c.data.Len()
	if n != c.blocks*g.BlockSize || c.lba+int64(c.blocks) > g.NumBlocks {
		c.data.Release()
		c.fail()
		return
	}
	// Two physical copies (recv()+write() in the reference target):
	// network buffers into the target's cache, then into the disk buffer.
	// Zero with wire-format storage.
	if t.WireFormat {
		node.Charge(0, c.store)
		return
	}
	node.Copies.AddPhysical(n)
	node.Charge(node.Cost.CopyCost(n), nil)
	node.ChargeCopy(n, c.store)
}

// storeData gathers the wire chain into an extent — the disk-image
// boundary: the device keeps a flat image, so the one permitted copy happens
// here — and writes it.
func (c *command) storeData() {
	t := c.s.target
	n := c.data.Len()
	c.land(n)
	c.data.Gather(c.vec[0])
	c.data.Release()
	c.data = nil
	t.BytesIn += uint64(n)
	t.dev.WriteBlocks(c.lba, c.vec[:], c.written)
}

// onWritten answers a WRITE once the device is done with the extent.
func (c *command) onWritten(err error) {
	s, itt := c.s, c.itt
	c.retire()
	trace.To(s.target.node.Eng, trace.LISCSI)
	status := scsi.StatusGood
	if err != nil {
		status = scsi.StatusCheckCondition
	}
	s.reply(PDU{
		Op: OpSCSIResp, Final: true, HasStatus: true,
		Status: status, ITT: itt,
	})
}

// checkCondition reports a command failure.
func (s *session) checkCondition(itt uint32) {
	s.reply(PDU{
		Op: OpSCSIResp, Final: true, HasStatus: true,
		Status: scsi.StatusCheckCondition, ITT: itt,
	})
}
