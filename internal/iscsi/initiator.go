package iscsi

import (
	"errors"
	"fmt"

	"ncache/internal/blockdev"
	"ncache/internal/netbuf"
	"ncache/internal/proto/eth"
	"ncache/internal/proto/tcp"
	"ncache/internal/scsi"
	"ncache/internal/sim"
	"ncache/internal/simnet"
	"ncache/internal/trace"
)

// Errors surfaced by the initiator.
var (
	ErrNotConnected = errors.New("iscsi: not connected")
	ErrCheckCond    = errors.New("iscsi: check condition")
)

// task tracks one outstanding command, with what is needed to re-issue it
// when the target reports a transient CHECK CONDITION.
type task struct {
	lba    int64
	blocks int
	write  bool
	// payload is a retained image of the write data so a retry re-sends
	// exactly the bytes of the first attempt.
	payload *netbuf.Chain
	tries   int
	onData  func(*netbuf.Chain, error)
	onDone  func(error)
}

// releasePayload drops the retained write image.
func (t *task) releasePayload() {
	if t.payload != nil {
		t.payload.Release()
		t.payload = nil
	}
}

// Initiator is the pass-through server's iSCSI client (the kernel
// initiator module analogue). It exposes block reads/writes whose payloads
// travel as netbuf chains, tagged with the metadata/regular-data
// classification the file system derives from the inode behind each request
// (§3.3: "the page data structure associated with iSCSI requests contains
// the inode type information").
type Initiator struct {
	node   *simnet.Node
	tcp    *tcp.Transport
	local  eth.Addr
	conn   *tcp.Conn
	framer *Framer

	nextITT uint32
	cmdSN   uint32
	pending map[uint32]*task
	geom    blockdev.Geometry

	// retryMax/retryBackoff configure CHECK CONDITION retries (off while
	// retryMax is zero).
	retryMax     int
	retryBackoff sim.Duration

	// Stats.
	ReadCmds, WriteCmds uint64
	// Retries counts commands re-issued after a transient target error.
	Retries uint64
}

// NewInitiator creates an initiator on the node's TCP transport, bound to a
// local address.
func NewInitiator(node *simnet.Node, t *tcp.Transport, local eth.Addr) *Initiator {
	return &Initiator{
		node:    node,
		tcp:     t,
		local:   local,
		nextITT: 1,
		cmdSN:   1,
		pending: make(map[uint32]*task),
	}
}

// SetRetry makes the initiator re-issue a command up to max times when the
// target reports CHECK CONDITION, waiting backoff before each attempt. Off
// by default: the testbed's array never errors unless faults are injected.
func (i *Initiator) SetRetry(max int, backoff sim.Duration) {
	if max < 0 {
		max = 0
	}
	i.retryMax, i.retryBackoff = max, backoff
}

// Geometry returns the target device geometry (valid after Connect).
func (i *Initiator) Geometry() blockdev.Geometry { return i.geom }

// Connect logs in to the target and discovers its geometry.
func (i *Initiator) Connect(target eth.Addr, done func(error)) {
	i.tcp.Connect(i.local, target, Port, func(c *tcp.Conn, err error) {
		if err != nil {
			done(err)
			return
		}
		i.conn = c
		i.framer = NewFramer(i.handlePDU)
		c.SetReceiver(i.framer.Push)

		login := PDU{Op: OpLoginReq, Final: true, ITT: i.allocITT(nil)}
		i.pending[login.ITT] = &task{onDone: func(err error) {
			if err != nil {
				done(err)
				return
			}
			i.readCapacity(done)
		}}
		i.send(login)
	})
}

// readCapacity issues READ CAPACITY(10) and stores the geometry.
func (i *Initiator) readCapacity(done func(error)) {
	itt := i.allocITT(nil)
	i.pending[itt] = &task{onData: func(data *netbuf.Chain, err error) {
		if err != nil {
			done(err)
			return
		}
		var raw [8]byte
		data.Gather(raw[:])
		data.Release()
		cap10, err := scsi.DecodeReadCapacity(raw[:])
		if err != nil {
			done(err)
			return
		}
		i.geom = blockdev.Geometry{
			BlockSize: int(cap10.BlockSize),
			NumBlocks: int64(cap10.LastLBA) + 1,
		}
		done(nil)
	}}
	cdb := scsi.CDB{Op: scsi.OpReadCapacity10}.Encode()
	i.send(PDU{Op: OpSCSICmd, Final: true, ITT: itt, CmdSN: i.allocCmdSN(), CDB: cdb})
}

// Read fetches blocks from the target. meta marks file-system metadata
// (inodes, directories, bitmaps); the tag is acted on above the transport,
// at the pass-through server's one interception point, and ignored here. The
// callback owns the returned chain.
func (i *Initiator) Read(lba int64, blocks int, meta bool, done func(*netbuf.Chain, error)) {
	if i.conn == nil {
		done(nil, ErrNotConnected)
		return
	}
	trace.To(i.node.Eng, trace.LISCSI)
	i.ReadCmds++
	itt := i.allocITT(nil)
	i.pending[itt] = &task{lba: lba, blocks: blocks, onData: done}
	cdb := scsi.CDB{Op: scsi.OpRead10, LBA: uint32(lba), Blocks: uint16(blocks)}.Encode()
	i.send(PDU{
		Op: OpSCSICmd, Final: true, ITT: itt,
		ExpectedLen: uint32(blocks * i.geom.BlockSize),
		CmdSN:       i.allocCmdSN(), CDB: cdb,
	})
}

// Write stores a payload chain at lba. The initiator takes ownership of the
// chain; its length must be block-aligned. meta marks file-system metadata.
func (i *Initiator) Write(lba int64, data *netbuf.Chain, meta bool, done func(error)) {
	if i.conn == nil {
		data.Release()
		done(ErrNotConnected)
		return
	}
	trace.To(i.node.Eng, trace.LISCSI)
	i.WriteCmds++
	blocks := data.Len() / i.geom.BlockSize
	t := &task{lba: lba, blocks: blocks, write: true, onDone: done}
	if i.retryMax > 0 {
		t.payload = data.Clone()
		t.payload.SetOwner("iscsi.retry")
	}
	itt := i.allocITT(nil)
	i.pending[itt] = t
	cdb := scsi.CDB{Op: scsi.OpWrite10, LBA: uint32(lba), Blocks: uint16(blocks)}.Encode()
	i.send(PDU{
		Op: OpSCSICmd, Final: true, ITT: itt,
		ExpectedLen: uint32(data.Len()),
		CmdSN:       i.allocCmdSN(), CDB: cdb,
		Data: data,
	})
}

// send encodes and transmits one PDU, charging per-command CPU.
func (i *Initiator) send(p PDU) {
	chain, err := p.EncodePool(i.node.TxPool)
	if err != nil {
		i.fail(p.ITT, err)
		return
	}
	i.node.Charge(i.node.Cost.ISCSIOpNs, func() {
		if err := i.conn.SendChain(chain); err != nil {
			i.fail(p.ITT, err)
		}
	})
}

// fail completes a task with an error.
func (i *Initiator) fail(itt uint32, err error) {
	t, ok := i.pending[itt]
	if !ok {
		return
	}
	delete(i.pending, itt)
	t.releasePayload()
	if t.onData != nil {
		t.onData(nil, err)
	} else if t.onDone != nil {
		t.onDone(err)
	}
}

// retry re-issues a failed command under a fresh task tag after the
// configured backoff. The wait is booked as fault-attributed iSCSI time on
// the request's span (recovery latency, not injected delay).
func (i *Initiator) retry(t *task) {
	t.tries++
	i.Retries++
	trace.Fault(i.node.Eng, trace.LISCSI, i.retryBackoff)
	i.node.Eng.Schedule(i.retryBackoff, func() {
		itt := i.allocITT(nil)
		i.pending[itt] = t
		if t.write {
			cdb := scsi.CDB{Op: scsi.OpWrite10, LBA: uint32(t.lba), Blocks: uint16(t.blocks)}.Encode()
			data := t.payload.Clone()
			i.send(PDU{
				Op: OpSCSICmd, Final: true, ITT: itt,
				ExpectedLen: uint32(data.Len()),
				CmdSN:       i.allocCmdSN(), CDB: cdb,
				Data: data,
			})
			return
		}
		cdb := scsi.CDB{Op: scsi.OpRead10, LBA: uint32(t.lba), Blocks: uint16(t.blocks)}.Encode()
		i.send(PDU{
			Op: OpSCSICmd, Final: true, ITT: itt,
			ExpectedLen: uint32(t.blocks * i.geom.BlockSize),
			CmdSN:       i.allocCmdSN(), CDB: cdb,
		})
	})
}

// handlePDU processes one response PDU from the target.
func (i *Initiator) handlePDU(p PDU) {
	t, ok := i.pending[p.ITT]
	if !ok {
		if p.Data != nil {
			p.Data.Release()
		}
		return
	}
	trace.To(i.node.Eng, trace.LISCSI)
	i.node.Charge(i.node.Cost.ISCSIOpNs, func() {
		switch p.Op {
		case OpLoginResp, OpLogoutResp:
			delete(i.pending, p.ITT)
			if p.Data != nil {
				p.Data.Release()
			}
			if t.onDone != nil {
				t.onDone(nil)
			}
		case OpDataIn:
			delete(i.pending, p.ITT)
			data := p.Data
			if data == nil {
				data = netbuf.NewChain()
			}
			if p.HasStatus && p.Status != scsi.StatusGood {
				data.Release()
				if t.tries < i.retryMax {
					i.retry(t)
					return
				}
				t.onData(nil, fmt.Errorf("%w: status %#x", ErrCheckCond, p.Status))
				return
			}
			t.onData(data, nil)
		case OpSCSIResp:
			delete(i.pending, p.ITT)
			if p.Data != nil {
				p.Data.Release()
			}
			if p.Status != scsi.StatusGood {
				if t.tries < i.retryMax {
					i.retry(t)
					return
				}
				t.releasePayload()
				err := fmt.Errorf("%w: status %#x", ErrCheckCond, p.Status)
				if t.onDone != nil {
					t.onDone(err)
				} else if t.onData != nil {
					t.onData(nil, err)
				}
				return
			}
			t.releasePayload()
			if t.onDone != nil {
				t.onDone(nil)
			} else if t.onData != nil {
				t.onData(nil, nil)
			}
		default:
			if p.Data != nil {
				p.Data.Release()
			}
		}
	})
}

// allocITT reserves a task tag.
func (i *Initiator) allocITT(_ *task) uint32 {
	itt := i.nextITT
	i.nextITT++
	return itt
}

// allocCmdSN reserves a command sequence number.
func (i *Initiator) allocCmdSN() uint32 {
	sn := i.cmdSN
	i.cmdSN++
	return sn
}

// Pending reports outstanding commands.
func (i *Initiator) Pending() int { return len(i.pending) }
