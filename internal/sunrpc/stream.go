package sunrpc

import (
	"encoding/binary"

	"ncache/internal/netbuf"
	"ncache/internal/proto/eth"
	"ncache/internal/proto/tcp"
)

// RPC-over-TCP uses RFC 5531 record marking: each message is prefixed by a
// 4-byte header whose top bit marks the last fragment and whose low 31 bits
// carry the fragment length. This file is the second framing of the one
// server and the one client, so NFS can run over TCP as well as UDP — the
// transport comparison the paper touches in §5.5 (HTTP's higher per-packet
// overhead comes from TCP).

// recordMarkLen is the record-marking header size.
const recordMarkLen = 4

// lastFragment is the top bit of the record mark.
const lastFragment = 0x80000000

// recordStream reassembles record-marked messages from a TCP byte stream
// without copying payload (whole records are carved out with PullChain).
type recordStream struct {
	buf  *netbuf.Chain
	emit func(*netbuf.Chain)
	// pending is the current record length once its mark has been read.
	pending int
	// Errors counts malformed stream states.
	Errors uint64
}

func newRecordStream(emit func(*netbuf.Chain)) *recordStream {
	return &recordStream{buf: netbuf.NewChain(), emit: emit}
}

// push appends stream data and emits complete records. Multi-fragment
// records are not generated by this implementation; receiving one counts as
// an error (the peer is always this package).
func (r *recordStream) push(data *netbuf.Chain) {
	r.buf.AppendChain(data)
	for {
		if r.pending == 0 {
			if r.buf.Len() < recordMarkLen {
				return
			}
			var raw [recordMarkLen]byte
			if err := r.buf.PullHeaderInto(raw[:]); err != nil {
				r.Errors++
				return
			}
			mark := binary.BigEndian.Uint32(raw[:])
			if mark&lastFragment == 0 {
				r.Errors++
				return
			}
			r.pending = int(mark &^ lastFragment)
			if r.pending == 0 {
				r.Errors++
				return
			}
		}
		if r.buf.Len() < r.pending {
			return
		}
		rec, err := r.buf.PullChain(r.pending)
		if err != nil {
			r.Errors++
			return
		}
		r.pending = 0
		r.emit(rec)
	}
}

// markAndSend prepends a record mark and transmits the message on the
// connection (zero-copy: the mark is one fresh 4-byte buffer).
func markAndSend(conn *tcp.Conn, msg *netbuf.Chain) error {
	mb := conn.Node().TxPool.GetSized(recordMarkLen, netbuf.DefaultHeadroom)
	binary.BigEndian.PutUint32(mb.Bytes(), uint32(msg.Len())|lastFragment)
	out := netbuf.ChainOf(mb)
	out.AppendChain(msg)
	return conn.SendChain(out)
}

// ServeStream serves calls arriving as records on connections to the
// transport's port.
func (s *Server) ServeStream(t *tcp.Transport, port uint16) error {
	return t.Listen(port, func(conn *tcp.Conn) {
		rs := newRecordStream(func(rec *netbuf.Chain) {
			s.dispatch(Call{Src: conn.RemoteAddr(), Dst: conn.LocalAddr(), conn: conn}, rec)
		})
		conn.SetReceiver(rs.push)
	})
}

// DialStream connects an RPC client to server:port over TCP and hands it to
// done once the connection is established.
func DialStream(t *tcp.Transport, local, server eth.Addr, port uint16, done func(*Client, error)) {
	t.Connect(local, server, port, func(conn *tcp.Conn, err error) {
		if err != nil {
			done(nil, err)
			return
		}
		c := newClient(conn.Node())
		c.conn = conn
		conn.SetReceiver(newRecordStream(c.receive).push)
		done(c, nil)
	})
}
