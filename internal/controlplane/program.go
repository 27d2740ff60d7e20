package controlplane

import (
	"errors"

	"ncache/internal/netbuf"
	"ncache/internal/proto/eth"
	"ncache/internal/proto/udp"
	"ncache/internal/sim"
	"ncache/internal/sunrpc"
	"ncache/internal/xdr"
)

// Port is the control plane's well-known UDP port: the RPC service on the
// control node, and on every front-end agent on its own server, so each end
// knows the other's address from the member set alone. Calls leave from the
// ports above it: an agent's from Port+1, the control node's to server i
// from Port+1+i.
const Port uint16 = 964

// The remap-coherence program. REMAP, served by the control node, announces
// one server's remapped LBNs; INVALIDATE, served by every agent, carries
// them to each other server. Both take the same arguments, and the reply,
// which has no results, is the acknowledgement.
const (
	prog           = 0x20000964 // from the range RFC 5531 leaves to local use
	vers           = 1
	procRemap      = 1
	procInvalidate = 2
)

// MaxLBNs bounds the block list of one call; larger remap sets leave as
// successive rounds, so every call fits one transmit buffer and one
// datagram.
const MaxLBNs = 128

// Every control-plane client resends an unanswered call after the round trip
// it has measured to its server, retryFloor where that is less, doubling the
// wait per resend up to sunrpc's 32 × retryFloor, and gives up after
// retrySends sends: from the floor, 10 + 20 + 40 + 80 + 160 + 320 = 630 ms
// after the first.
const (
	retryFloor = 10 * sim.Millisecond
	retrySends = 6
)

// The arguments: server(4) seq(8) count(4), then count 8-byte LBNs. (server,
// seq) names one remap exactly, which is what makes retries idempotent.
const argsHead = 16

// errBadArgs reports arguments that do not decode.
var errBadArgs = errors.New("controlplane: bad arguments")

// dial binds a control-plane client on t at local:port, calling server's
// Port.
func dial(t *udp.Transport, local eth.Addr, port uint16, server eth.Addr) (*sunrpc.Client, error) {
	c, err := sunrpc.NewClient(t, local, port, server, Port)
	if err != nil {
		return nil, err
	}
	c.SetRetransmit(retryFloor, retrySends)
	return c, nil
}

// call issues one control-plane call with no request context. Control
// traffic serves no client request, so it must not switch a live span's
// layer nor book its resend waits as that span's fault time.
func call(c *sunrpc.Client, proc uint32, server int, seq uint64, lbns []int64, done func(sunrpc.Reply, error)) error {
	eng := c.Node().Eng
	ctx := eng.Context()
	eng.SetContext(nil)
	defer eng.SetContext(ctx)
	msg, args := sunrpc.CallBuf(c.Node(), argsHead+8*len(lbns))
	putArgs(args, server, seq, lbns)
	return c.Call(prog, vers, proc, msg, nil, done)
}

// putArgs encodes the arguments into p, argsHead + 8·len(lbns) bytes.
func putArgs(p []byte, server int, seq uint64, lbns []int64) {
	e := xdr.Over(p)
	e.Uint32(uint32(server))
	e.Uint64(seq)
	e.Uint32(uint32(len(lbns)))
	for _, l := range lbns {
		e.Uint64(uint64(l))
	}
}

// decodeArgs parses a call's arguments out of body, which it releases,
// reusing lbns for the block list. The body must hold exactly the count it
// announces, and that at most MaxLBNs. Arguments are a few dozen bytes, so
// they are copied out of the wire buffers: the zero-copy discipline is for
// block payloads.
func decodeArgs(body *netbuf.Chain, lbns []int64) (server int, seq uint64, out []int64, err error) {
	defer body.Release()
	var raw [argsHead + 8*MaxLBNs]byte
	n := body.Len()
	if n < argsHead || n > len(raw) {
		return 0, 0, lbns, errBadArgs
	}
	body.Gather(raw[:n])
	d := xdr.NewDecoder(raw[:n])
	srv, _ := d.Uint32()
	seq, _ = d.Uint64()
	count, _ := d.Uint32()
	if count > MaxLBNs || n != argsHead+8*int(count) {
		return 0, 0, lbns, errBadArgs
	}
	out = lbns[:0]
	for range count {
		l, _ := d.Uint64()
		out = append(out, int64(l))
	}
	return int(srv), seq, out, nil
}

// ack replies to a call with no results.
func ack(c sunrpc.Call) error {
	hb, _ := c.ReplyBuf(0)
	return c.Send(hb, nil)
}

// release drops a reply's body, which an error leaves nil.
func release(r sunrpc.Reply) {
	r.Body.Release()
}
