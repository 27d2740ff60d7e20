package udp

import (
	"bytes"
	"encoding/binary"
	"testing"

	"ncache/internal/netbuf"
	"ncache/internal/proto/eth"
)

// buildDatagram crafts on pool a wire-format UDP datagram (header +
// payload) with a correct checksum; mangle, if set, corrupts the header
// afterwards.
func buildDatagram(pool *netbuf.Pool, src, dst eth.Addr, srcPort, dstPort uint16, pay []byte, mangle func(hdr []byte)) *netbuf.Chain {
	hdr := make([]byte, HeaderLen)
	total := HeaderLen + len(pay)
	binary.BigEndian.PutUint16(hdr[0:2], srcPort)
	binary.BigEndian.PutUint16(hdr[2:4], dstPort)
	binary.BigEndian.PutUint16(hdr[4:6], uint16(total))
	sum := pseudoHeaderSum(src, dst, uint16(total))
	sum.AddBytes(hdr)
	sum.AddBytes(pay)
	ck := sum.Checksum()
	if ck == 0 {
		ck = 0xffff
	}
	binary.BigEndian.PutUint16(hdr[6:8], ck)
	if mangle != nil {
		mangle(hdr)
	}
	return pool.GetChain(append(append([]byte{}, hdr...), pay...))
}

// inject feeds a crafted datagram straight into the receive path, as if the
// IP layer had just reassembled it.
func inject(t *testing.T, h *host, src eth.Addr, dg *netbuf.Chain) {
	t.Helper()
	h.udp.receive(src, h.addr, dg)
}

// TestWireFormatRoundTrip checks the header codec field by field: a crafted
// datagram surfaces with the same ports, addresses and payload bytes.
func TestWireFormatRoundTrip(t *testing.T) {
	eng, a, b := twoHosts(t)
	payload := []byte("framing round trip")
	var got *Datagram
	if err := b.udp.Bind(2049, func(dg Datagram) { got = &dg }); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	inject(t, b, a.addr, buildDatagram(b.node.TxPool, a.addr, b.addr, 700, 2049, payload, nil))
	eng.Run()
	if got == nil {
		t.Fatal("datagram not delivered")
	}
	if got.Src != a.addr || got.Dst != b.addr || got.SrcPort != 700 || got.DstPort != 2049 {
		t.Fatalf("addressing = %+v", got)
	}
	if !bytes.Equal(got.Payload.Flatten(), payload) {
		t.Fatal("payload damaged in framing")
	}
	got.Payload.Release()
}

// TestShortHeaderRejected checks runt datagrams are dropped, not parsed.
func TestShortHeaderRejected(t *testing.T) {
	eng, a, b := twoHosts(t)
	delivered := false
	if err := b.udp.Bind(2049, func(dg Datagram) { delivered = true; dg.Payload.Release() }); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	inject(t, b, a.addr, b.node.TxPool.GetChain([]byte{0x01, 0x02, 0x03}))
	eng.Run()
	if delivered {
		t.Fatal("runt datagram delivered")
	}
	if b.udp.BadChecksums != 1 {
		t.Fatalf("BadChecksums = %d, want 1", b.udp.BadChecksums)
	}
}

// TestBadHeaderChecksumRejected corrupts the checksum field itself.
func TestBadHeaderChecksumRejected(t *testing.T) {
	eng, a, b := twoHosts(t)
	delivered := false
	if err := b.udp.Bind(2049, func(dg Datagram) { delivered = true; dg.Payload.Release() }); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	inject(t, b, a.addr, buildDatagram(b.node.TxPool, a.addr, b.addr, 700, 2049, []byte("x"), func(hdr []byte) {
		hdr[6] ^= 0xff
	}))
	eng.Run()
	if delivered || b.udp.BadChecksums != 1 {
		t.Fatalf("delivered=%v BadChecksums=%d", delivered, b.udp.BadChecksums)
	}
}

// TestLengthMismatchRejected corrupts the length field: the pseudo-header
// sum no longer matches and the datagram must not demux.
func TestLengthMismatchRejected(t *testing.T) {
	eng, a, b := twoHosts(t)
	delivered := false
	if err := b.udp.Bind(2049, func(dg Datagram) { delivered = true; dg.Payload.Release() }); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	inject(t, b, a.addr, buildDatagram(b.node.TxPool, a.addr, b.addr, 700, 2049, []byte("abcd"), func(hdr []byte) {
		binary.BigEndian.PutUint16(hdr[4:6], uint16(HeaderLen+4+8))
	}))
	eng.Run()
	if delivered || b.udp.BadChecksums != 1 {
		t.Fatalf("delivered=%v BadChecksums=%d", delivered, b.udp.BadChecksums)
	}
}
