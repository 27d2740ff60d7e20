package tcp

import (
	"encoding/binary"
	"testing"

	"ncache/internal/netbuf"
	"ncache/internal/proto/eth"
)

// buildSegment crafts on pool a wire-format TCP segment with a correct
// checksum; mangle, if set, corrupts the header afterwards.
func buildSegment(pool *netbuf.Pool, src, dst eth.Addr, srcPort, dstPort uint16, seq, ack uint32, flags uint8, pay []byte, mangle func(hdr []byte)) *netbuf.Chain {
	hdr := make([]byte, HeaderLen)
	binary.BigEndian.PutUint16(hdr[0:2], srcPort)
	binary.BigEndian.PutUint16(hdr[2:4], dstPort)
	binary.BigEndian.PutUint32(hdr[4:8], seq)
	binary.BigEndian.PutUint32(hdr[8:12], ack)
	hdr[12] = flags
	sum := pseudoHeaderSum(src, dst)
	sum.AddBytes(hdr)
	sum.AddBytes(pay)
	binary.BigEndian.PutUint16(hdr[14:16], sum.Checksum())
	if mangle != nil {
		mangle(hdr)
	}
	return pool.GetChain(append(append([]byte{}, hdr...), pay...))
}

// inject feeds a crafted segment straight into the receive path.
func inject(h *host, src eth.Addr, seg *netbuf.Chain) {
	h.tcp.receive(src, h.addr, seg)
}

// TestSegmentWireFormatRoundTrip checks the header codec field by field: a
// crafted SYN reaches the listener's demux with its ports and sequence
// number intact (visible in the passive connection it creates).
func TestSegmentWireFormatRoundTrip(t *testing.T) {
	eng, a, b := twoHosts(t)
	if err := b.tcp.Listen(80, func(c *Conn) {}); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	const seq = 0x1234_5678
	inject(b, a.addr, buildSegment(b.node.TxPool, a.addr, b.addr, 5555, 80, seq, 0, flagSYN, nil, nil))
	// Demux is synchronous: the passive connection exists before the
	// engine runs. (Running further would let host a RST the half-open
	// connection, since no real client owns port 5555 there.)
	key := connKey{localAddr: b.addr, remoteAddr: a.addr, localPort: 80, remotePort: 5555}
	c, ok := b.tcp.conns[key]
	if !ok {
		t.Fatalf("no passive connection for %+v (ports mis-framed)", key)
	}
	if c.rcvNxt != seq+1 {
		t.Fatalf("rcvNxt = %#x, want seq+1 = %#x", c.rcvNxt, uint32(seq+1))
	}
	_ = eng
}

// TestShortSegmentRejected checks runt segments are counted and dropped.
func TestShortSegmentRejected(t *testing.T) {
	eng, a, b := twoHosts(t)
	inject(b, a.addr, b.node.TxPool.GetChain(make([]byte, HeaderLen-1)))
	eng.Run()
	if b.tcp.ProtocolErrors != 1 {
		t.Fatalf("ProtocolErrors = %d, want 1", b.tcp.ProtocolErrors)
	}
	if len(b.tcp.conns) != 0 {
		t.Fatal("runt segment created connection state")
	}
}

// TestBadChecksumRejected flips a checksum byte on an otherwise valid SYN:
// it must neither demux nor create a passive connection.
func TestBadChecksumRejected(t *testing.T) {
	eng, a, b := twoHosts(t)
	if err := b.tcp.Listen(80, func(c *Conn) {}); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	inject(b, a.addr, buildSegment(b.node.TxPool, a.addr, b.addr, 5555, 80, 1, 0, flagSYN, nil, func(hdr []byte) {
		hdr[14] ^= 0xff
	}))
	eng.Run()
	if b.tcp.ProtocolErrors != 1 || len(b.tcp.conns) != 0 {
		t.Fatalf("errors=%d conns=%d, want 1/0", b.tcp.ProtocolErrors, len(b.tcp.conns))
	}
}

// TestStrayAckRejected checks a well-formed segment for a connection that
// does not exist is rejected (counted as a stray and answered with RST)
// rather than fabricating state — and that it is not misfiled as a
// protocol error, which is reserved for genuinely malformed input.
func TestStrayAckRejected(t *testing.T) {
	eng, a, b := twoHosts(t)
	inject(b, a.addr, buildSegment(b.node.TxPool, a.addr, b.addr, 5555, 80, 7, 9, flagACK, []byte("ghost"), nil))
	eng.Run()
	if b.tcp.StraySegments != 1 || b.tcp.ProtocolErrors != 0 || len(b.tcp.conns) != 0 {
		t.Fatalf("strays=%d errors=%d conns=%d, want 1/0/0",
			b.tcp.StraySegments, b.tcp.ProtocolErrors, len(b.tcp.conns))
	}
	// The RST answer lands at a's transport, which also has no such
	// connection; it must swallow it without replying (no RST storms).
	if a.tcp.StraySegments != 1 || a.tcp.ProtocolErrors != 0 {
		t.Fatalf("a: strays=%d errors=%d, want 1/0", a.tcp.StraySegments, a.tcp.ProtocolErrors)
	}
}
