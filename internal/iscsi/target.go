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
// less: a payload lands once in a recycled staging buffer between the
// device's flat image and the wire's chains.
type Target struct {
	node *simnet.Node
	dev  blockdev.Device
	// free holds the records of completed READ and WRITE commands, staging
	// buffers included. A target lives on one node, so the list needs no
	// lock.
	free netbuf.FreeList[command]

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
// and task tag the response answers, the block range, a WRITE's data, and
// the flat staging buffer the payload crosses the disk-image boundary in,
// with the one-element vector Device calls take. Its continuations are bound
// once, when the record is first allocated. A record never leaves its Target
// and retires before its response is sent: after TxPool.GetChain copied a
// READ's payload out, after the device's done for a WRITE. The staging
// buffer retires with it and keeps its capacity for the next tenant; in
// netbuf debug mode it is poisoned and the record abandoned, and a second
// retire panics.
type command struct {
	s      *session
	dead   bool // retired in debug mode
	itt    uint32
	lba    int64
	blocks int
	data   *netbuf.Chain
	buf    []byte
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

// stage sizes the staging buffer's vector to n bytes. The bytes are whatever
// the previous tenant left: both users overwrite all n.
func (c *command) stage(n int) {
	if cap(c.buf) < n {
		c.buf = make([]byte, n)
	}
	c.vec[0] = c.buf[:n]
}

// retire hands the record back to the target; the caller has copied out
// what the response needs.
func (c *command) retire() {
	if c.dead {
		panic("iscsi: target command retired twice")
	}
	buf := c.buf
	if buf != nil && !netbuf.Recycle(buf) {
		buf = nil
	}
	t := c.s.target
	*c = command{
		buf:  buf,
		read: c.read, send: c.send, write: c.write, store: c.store,
		readDone: c.readDone, written: c.written,
	}
	c.dead = !t.free.Put(c)
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
	s.framer = NewFramer(s.handlePDU)
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
	chain, err := p.EncodePool(s.target.node.TxPool)
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
		if p.Data != nil {
			p.Data.Release()
		}
		node.Charge(node.Cost.ISCSIOpNs, func() {
			s.reply(PDU{Op: OpLoginResp, Final: true, ITT: p.ITT})
		})
	case OpLogoutReq:
		if p.Data != nil {
			p.Data.Release()
		}
		node.Charge(node.Cost.ISCSIOpNs, func() {
			s.reply(PDU{Op: OpLogoutResp, Final: true, ITT: p.ITT})
		})
	case OpSCSICmd:
		s.handleCommand(p)
	default:
		if p.Data != nil {
			p.Data.Release()
		}
	}
}

// handleCommand dispatches a SCSI command.
func (s *session) handleCommand(p PDU) {
	t := s.target
	node := t.node
	cdb, err := scsi.DecodeCDB(p.CDB[:])
	if err != nil {
		s.checkCondition(p.ITT)
		if p.Data != nil {
			p.Data.Release()
		}
		return
	}
	switch cdb.Op {
	case scsi.OpReadCapacity10:
		if p.Data != nil {
			p.Data.Release()
		}
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
		if p.Data != nil {
			p.Data.Release()
		}
		t.ReadCmds++
		perBlock := sim.Duration(cdb.Blocks) * node.Cost.TargetBlockNs
		node.Charge(node.Cost.ISCSIOpNs+perBlock, s.command(p.ITT, cdb).read)

	case scsi.OpWrite10:
		t.WriteCmds++
		c := s.command(p.ITT, cdb)
		c.data = p.Data
		if c.data == nil {
			c.data = netbuf.NewChain()
		}
		perBlock := sim.Duration(cdb.Blocks) * node.Cost.TargetBlockNs
		node.Charge(node.Cost.ISCSIOpNs+perBlock, c.write)

	default:
		if p.Data != nil {
			p.Data.Release()
		}
		s.checkCondition(p.ITT)
	}
}

// issueRead starts a READ once the per-command CPU is served.
func (c *command) issueRead() {
	t := c.s.target
	g := t.dev.Geometry()
	if c.lba+int64(c.blocks) > g.NumBlocks {
		// Refused before a staging buffer is sized by it.
		c.fail()
		return
	}
	c.stage(c.blocks * g.BlockSize)
	t.dev.ReadBlocks(c.lba, c.vec[:], c.readDone)
}

// onRead charges the copies out of the staging buffer once the blocks are
// off the platters; the rest is target CPU.
func (c *command) onRead(err error) {
	t := c.s.target
	node := t.node
	trace.To(node.Eng, trace.LISCSI)
	if err != nil {
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

// sendData copies the staged payload into transmit buffers and answers.
func (c *command) sendData() {
	s, itt := c.s, c.itt
	payload := s.target.node.TxPool.GetChain(c.vec[0])
	c.retire()
	s.reply(PDU{
		Op: OpDataIn, Final: true, HasStatus: true,
		Status: scsi.StatusGood, ITT: itt,
		Data: payload,
	})
}

// checkWrite refuses a WRITE whose data segment is not exactly the CDB's
// blocks, or whose range passes the device end, before anything is staged
// or copied; otherwise it charges the copies into the staging buffer.
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

// storeData gathers the wire chain into the staging buffer — the disk-image
// boundary: the device keeps a flat image, so the one permitted copy happens
// here — and writes it.
func (c *command) storeData() {
	t := c.s.target
	n := c.data.Len()
	c.stage(n)
	c.data.Gather(c.vec[0])
	c.data.Release()
	c.data = nil
	t.BytesIn += uint64(n)
	t.dev.WriteBlocks(c.lba, c.vec[:], c.written)
}

// onWritten answers a WRITE once the device is done with the staging buffer.
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
