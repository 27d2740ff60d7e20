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

// ErrCheckCond is the error of a command the target answered with CHECK
// CONDITION.
var ErrCheckCond = errors.New("iscsi: check condition")

// task is the recycled record of one outstanding command: what is needed to
// issue it (again, when the target reports a transient CHECK CONDITION), the
// PDU in either direction while the CPU serves its per-command cost, and the
// caller's completion. transmit, respond and reissue are bound once, when the
// record is first allocated. A record never leaves its Initiator and retires
// before the caller's completion runs; a retry keeps it under a fresh task
// tag.
type task struct {
	netbuf.Recycled
	i      *Initiator
	itt    uint32
	lba    int64
	blocks int
	write  bool
	// payload is a retained image of the write data so a retry re-sends
	// exactly the bytes of the first attempt.
	payload *netbuf.Chain
	tries   int
	onData  func(*netbuf.Chain, error)
	onDone  func(error)

	// out is the encoded command on its way to the connection; resp the
	// response being processed (answered while it is, so a second response
	// under the same tag is dropped, not processed on a recycled record).
	out      *netbuf.Chain
	resp     PDU
	answered bool

	transmit, respond, reissue func()
}

// task takes a blank record off the free list.
func (i *Initiator) task() *task {
	if t := i.free.Take(); t != nil {
		return t
	}
	t := &task{i: i}
	t.transmit, t.respond, t.reissue = t.sendOut, t.handle, t.issue
	return t
}

// finish ends the command: the record retires, then the caller hears.
func (t *task) finish(data *netbuf.Chain, err error) {
	t.releasePayload()
	onData, onDone := t.onData, t.onDone
	*t = task{Recycled: t.Recycled, i: t.i, transmit: t.transmit, respond: t.respond, reissue: t.reissue}
	t.i.free.Put(t)
	switch {
	case onData != nil:
		onData(data, err)
	case onDone != nil:
		onDone(err)
	}
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
	// free is the free list of command records (see task).
	free netbuf.FreeList[*task]
	geom blockdev.Geometry

	// retryMax/retryBackoff configure CHECK CONDITION retries (off while
	// retryMax is zero).
	retryMax     int
	retryBackoff sim.Duration

	// Stats.
	ReadCmds uint64
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
		i.framer = NewFramer(i.node.TxPool, i.handlePDU)
		c.SetReceiver(i.framer.Push)

		t := i.task()
		t.onDone = func(err error) {
			if err != nil {
				done(err)
				return
			}
			i.readCapacity(done)
		}
		i.send(t, PDU{Op: OpLoginReq, Final: true})
	})
}

// readCapacity issues READ CAPACITY(10) and stores the geometry.
func (i *Initiator) readCapacity(done func(error)) {
	t := i.task()
	t.onData = func(data *netbuf.Chain, err error) {
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
	}
	cdb := scsi.CDB{Op: scsi.OpReadCapacity10}.Encode()
	i.send(t, PDU{Op: OpSCSICmd, Final: true, CmdSN: i.allocCmdSN(), CDB: cdb})
}

// Read fetches blocks from the target. meta marks file-system metadata
// (inodes, directories, bitmaps); the tag is acted on above the transport,
// at the pass-through server's one interception point, and ignored here. The
// callback owns the returned chain. Read and Write need a connected initiator.
func (i *Initiator) Read(lba int64, blocks int, meta bool, done func(*netbuf.Chain, error)) {
	trace.To(i.node.Eng, trace.LISCSI)
	i.ReadCmds++
	t := i.task()
	t.lba, t.blocks, t.onData = lba, blocks, done
	t.command(nil)
}

// Write stores a payload chain at lba. The initiator takes ownership of the
// chain; its length must be block-aligned. meta marks file-system metadata.
func (i *Initiator) Write(lba int64, data *netbuf.Chain, meta bool, done func(error)) {
	trace.To(i.node.Eng, trace.LISCSI)
	t := i.task()
	t.lba, t.blocks, t.write, t.onDone = lba, data.Len()/i.geom.BlockSize, true, done
	if i.retryMax > 0 {
		t.payload = data.Clone()
		t.payload.SetOwner("iscsi.retry")
	}
	t.command(data)
}

// command sends the task's READ or WRITE, data the WRITE's data segment.
func (t *task) command(data *netbuf.Chain) {
	i := t.i
	op, expected := scsi.OpRead10, t.blocks*i.geom.BlockSize
	if t.write {
		op, expected = scsi.OpWrite10, data.Len()
	}
	cdb := scsi.CDB{Op: op, LBA: uint32(t.lba), Blocks: uint16(t.blocks)}.Encode()
	i.send(t, PDU{
		Op: OpSCSICmd, Final: true,
		ExpectedLen: uint32(expected),
		CmdSN:       i.allocCmdSN(), CDB: cdb,
		Data: data,
	})
}

// send makes t outstanding under a fresh task tag, then encodes and transmits
// its PDU, charging per-command CPU.
func (i *Initiator) send(t *task, p PDU) {
	t.itt = i.nextITT
	i.nextITT++
	i.pending[t.itt] = t
	p.ITT = t.itt
	chain, err := p.EncodePool(i.node.HdrPool)
	if err != nil {
		t.fail(err)
		return
	}
	t.out = chain
	i.node.Charge(i.node.Cost.ISCSIOpNs, t.transmit)
}

// sendOut hands the encoded command to the connection.
func (t *task) sendOut() {
	out := t.out
	t.out = nil
	if err := t.i.conn.SendChain(out); err != nil {
		t.fail(err)
	}
}

// fail completes with err a task whose command never reached the wire, so
// no answer can have come for it.
func (t *task) fail(err error) {
	delete(t.i.pending, t.itt)
	t.finish(nil, err)
}

// retry re-issues a failed command under a fresh task tag after the
// configured backoff. The wait is booked as fault-attributed iSCSI time on
// the request's span (recovery latency, not injected delay).
func (i *Initiator) retry(t *task) {
	t.tries++
	i.Retries++
	trace.Fault(i.node.Eng, trace.LISCSI, i.retryBackoff)
	i.node.Schedule(i.retryBackoff, t.reissue)
}

// issue sends the command again, a WRITE with a fresh clone of its image.
func (t *task) issue() {
	var data *netbuf.Chain
	if t.write {
		data = t.payload.Clone()
	}
	t.command(data)
}

// handlePDU takes in one response PDU from the target.
func (i *Initiator) handlePDU(p PDU) {
	t, ok := i.pending[p.ITT]
	if !ok || t.answered {
		p.Data.Release()
		return
	}
	trace.To(i.node.Eng, trace.LISCSI)
	t.resp, t.answered = p, true
	i.node.Charge(i.node.Cost.ISCSIOpNs, t.respond)
}

// handle processes the response once the CPU has served its cost.
func (t *task) handle() {
	i, p := t.i, t.resp
	t.resp, t.answered = PDU{}, false
	switch p.Op {
	case OpLoginResp, OpLogoutResp:
		delete(i.pending, p.ITT)
		p.Data.Release()
		t.finish(nil, nil)
	case OpDataIn:
		delete(i.pending, p.ITT)
		data := p.Data
		if data == nil {
			data = i.node.TxPool.NewChain(0)
		}
		if p.HasStatus && p.Status != scsi.StatusGood {
			data.Release()
			if t.tries < i.retryMax {
				i.retry(t)
				return
			}
			t.finish(nil, fmt.Errorf("%w: status %#x", ErrCheckCond, p.Status))
			return
		}
		t.finish(data, nil)
	case OpSCSIResp:
		delete(i.pending, p.ITT)
		p.Data.Release()
		if p.Status != scsi.StatusGood {
			if t.tries < i.retryMax {
				i.retry(t)
				return
			}
			t.finish(nil, fmt.Errorf("%w: status %#x", ErrCheckCond, p.Status))
			return
		}
		t.finish(nil, nil)
	default:
		p.Data.Release()
	}
}

// allocCmdSN reserves a command sequence number.
func (i *Initiator) allocCmdSN() uint32 {
	sn := i.cmdSN
	i.cmdSN++
	return sn
}
