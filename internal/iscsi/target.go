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
	// free holds the staging buffers of completed commands. A target
	// lives on one node, so the list needs no lock.
	free []*staging

	// WireFormat models the paper's §6 future-work proposal: disk-resident
	// data kept in a network-ready format, so the target moves blocks
	// between disk and NIC by descriptor (DMA) with no CPU copies — only
	// command and per-block processing remain.
	WireFormat bool

	// Stats.
	ReadCmds, WriteCmds uint64
	BytesOut, BytesIn   uint64
	Sessions            uint64
}

// NewTarget creates a target serving dev and listens on the iSCSI port.
func NewTarget(node *simnet.Node, tcpT *tcp.Transport, dev blockdev.Device) (*Target, error) {
	t := &Target{node: node, dev: dev}
	if err := tcpT.Listen(Port, t.accept); err != nil {
		return nil, err
	}
	return t, nil
}

// staging is the flat buffer one in-flight command's payload crosses the
// disk-image boundary in, with the one-element vector Device calls take.
type staging struct {
	buf []byte
	vec [1][]byte
}

// stage returns a staging buffer whose vec[0] is n bytes long. The bytes
// are whatever the previous command left: both users overwrite all n.
func (t *Target) stage(n int) *staging {
	var st *staging
	if k := len(t.free); k > 0 {
		st, t.free = t.free[k-1], t.free[:k-1]
	} else {
		st = &staging{}
	}
	if cap(st.buf) < n {
		st.buf = make([]byte, n)
	}
	st.vec[0] = st.buf[:n]
	return st
}

// unstage takes a staging buffer back once its command no longer reads or
// writes it: after the device's done for a WRITE, after the copy into
// transmit buffers for a READ.
func (t *Target) unstage(st *staging) {
	st.vec[0] = nil
	if netbuf.Recycle(st.buf) {
		t.free = append(t.free, st)
	}
}

// accept wires a new session.
func (t *Target) accept(c *tcp.Conn) {
	t.Sessions++
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
		node.Charge(node.Cost.ISCSIOpNs, func() {
			cc, cerr := node.TxPool.GetChain(capData[:])
			if cerr != nil {
				s.checkCondition(p.ITT)
				return
			}
			s.reply(PDU{
				Op: OpDataIn, Final: true, HasStatus: true,
				Status: scsi.StatusGood, ITT: p.ITT,
				Data: cc,
			})
		})

	case scsi.OpRead10:
		if p.Data != nil {
			p.Data.Release()
		}
		t.ReadCmds++
		perBlock := sim.Duration(cdb.Blocks) * node.Cost.TargetBlockNs
		node.Charge(node.Cost.ISCSIOpNs+perBlock, func() {
			g := t.dev.Geometry()
			if int64(cdb.LBA)+int64(cdb.Blocks) > g.NumBlocks {
				// Refused before a staging buffer is sized by it.
				s.checkCondition(p.ITT)
				return
			}
			st := t.stage(int(cdb.Blocks) * g.BlockSize)
			t.dev.ReadBlocks(int64(cdb.LBA), st.vec[:], func(err error) {
				// Blocks are off the platters; the rest is target CPU.
				trace.To(node.Eng, trace.LISCSI)
				if err != nil {
					t.unstage(st)
					s.checkCondition(p.ITT)
					return
				}
				// Two physical copies, as in the reference target's
				// read()+send() data path: disk buffer into the
				// target's cache, then into network buffers. With
				// wire-format storage (§6 future work) both vanish —
				// the blocks leave the disk already network-ready.
				n := len(st.vec[0])
				send := func() {
					payload, perr := node.TxPool.GetChain(st.vec[0])
					t.unstage(st)
					if perr != nil {
						s.checkCondition(p.ITT)
						return
					}
					t.BytesOut += uint64(n)
					s.reply(PDU{
						Op: OpDataIn, Final: true, HasStatus: true,
						Status: scsi.StatusGood, ITT: p.ITT,
						Data: payload,
					})
				}
				if t.WireFormat {
					node.Charge(0, send)
					return
				}
				node.Copies.AddPhysical(n)
				node.Charge(node.Cost.CopyCost(n), nil)
				node.ChargeCopy(n, send)
			})
		})

	case scsi.OpWrite10:
		t.WriteCmds++
		data := p.Data
		if data == nil {
			data = netbuf.NewChain()
		}
		perBlock := sim.Duration(cdb.Blocks) * node.Cost.TargetBlockNs
		node.Charge(node.Cost.ISCSIOpNs+perBlock, func() {
			// Two physical copies (recv()+write() in the reference
			// target): network buffers into the target's cache, then
			// into the disk buffer. Zero with wire-format storage.
			n := data.Len()
			store := func() {
				// Disk-image boundary: the device keeps a flat image, so
				// the one permitted copy gathers the wire chain here.
				st := t.stage(n)
				data.Gather(st.vec[0])
				data.Release()
				t.BytesIn += uint64(n)
				t.dev.WriteBlocks(int64(cdb.LBA), st.vec[:], func(err error) {
					t.unstage(st)
					trace.To(node.Eng, trace.LISCSI)
					status := scsi.StatusGood
					if err != nil {
						status = scsi.StatusCheckCondition
					}
					s.reply(PDU{
						Op: OpSCSIResp, Final: true, HasStatus: true,
						Status: status, ITT: p.ITT,
					})
				})
			}
			if t.WireFormat {
				node.Charge(0, store)
				return
			}
			node.Copies.AddPhysical(n)
			node.Charge(node.Cost.CopyCost(n), nil)
			node.ChargeCopy(n, store)
		})

	default:
		if p.Data != nil {
			p.Data.Release()
		}
		s.checkCondition(p.ITT)
	}
}

// checkCondition reports a command failure.
func (s *session) checkCondition(itt uint32) {
	s.reply(PDU{
		Op: OpSCSIResp, Final: true, HasStatus: true,
		Status: scsi.StatusCheckCondition, ITT: itt,
	})
}
