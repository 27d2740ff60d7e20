package bench

import (
	"fmt"
	"strings"

	"ncache/internal/nfs"
	"ncache/internal/passthru"
)

// TransportPoint is one measured transport-comparison point.
type TransportPoint struct {
	window
	Mode       passthru.Mode
	Transport  string  // an NFSTransports name
	ServerPkts float64 // packets per request (tx+rx), the §5.5 quantity
}

// NFSTransport is one way to reach the NFS service: a report name and a
// constructor building the per-host clients. The comparison adds a
// transport by adding an entry here, not by branching on a name.
type NFSTransport struct {
	Name    string
	Connect func(cl *passthru.Cluster) ([]*nfs.Client, error)
}

// NFSTransports lists the compared transports in report order.
var NFSTransports = []NFSTransport{
	{Name: "udp", Connect: connectNFSUDP},
	{Name: "tcp", Connect: connectNFSTCP},
}

// connectNFSUDP uses each host's mounted datagram client (the paper's NFS
// transport).
func connectNFSUDP(cl *passthru.Cluster) ([]*nfs.Client, error) { return nfsClients(cl), nil }

// connectNFSTCP dials a record-marked stream client per host, spread across
// the server NICs like the datagram clients are.
func connectNFSTCP(cl *passthru.Cluster) ([]*nfs.Client, error) {
	// Each dial completes into its own slot.
	clients := make([]*nfs.Client, len(cl.Clients))
	err := await(cl.Eng, func(p *pending) {
		for i, h := range cl.Clients {
			i, done := i, p.expect("NFS/TCP dial")
			nic := cl.App.Node.NICs()[i%len(cl.App.Node.NICs())]
			h.DialNFSTCP(nic.Addr, func(c *nfs.Client, err error) {
				clients[i] = c
				done(err)
			})
		}
	})
	return clients, err
}

// transport measures the all-hit 32 KB workload over each NFSTransports
// entry in the Original and NCache configurations. The paper explains
// kHTTPd's smaller gains partly by TCP's higher per-packet overhead (§5.5);
// running the *same* NFS service over both transports isolates exactly that
// effect. With Options.FaultSpec set the run additionally exercises loss
// recovery: datagram RPC retransmission over UDP against TCP
// RTO/fast-retransmit, with every escaped error counted.
func transport(h *harness) ([]TransportPoint, error) {
	var out []TransportPoint
	for _, mode := range []passthru.Mode{passthru.Original, passthru.NCache} {
		for _, tr := range NFSTransports {
			p, err := transportPoint(h, mode, tr)
			if err != nil {
				return nil, fmt.Errorf("transport %s/%s: %w", mode, tr.Name, err)
			}
			out = append(out, p)
		}
	}
	return out, nil
}

func transportPoint(h *harness, mode passthru.Mode, tr NFSTransport) (TransportPoint, error) {
	cl, load, err := h.hitRig(h.withFaults(passthru.ClusterConfig{Mode: mode, ServerNICs: 2}), 32, nil)
	if err != nil {
		return TransportPoint{}, err
	}
	// Connections are established fault-free; injection covers the load.
	if load.Clients, err = tr.Connect(cl); err != nil {
		return TransportPoint{}, err
	}
	packets := func() uint64 {
		t := cl.App.Node.NetTotals()
		return t.PacketsTx + t.PacketsRx
	}
	var pktsBefore uint64
	w, err := h.measure(cl, load, nil, 1, func() { pktsBefore = packets() }, nil)
	if err != nil {
		return TransportPoint{}, err
	}
	p := TransportPoint{window: w, Mode: mode, Transport: tr.Name}
	if w.Ops > 0 {
		// Read after the drain, so the tail of the in-flight requests is
		// counted against the window's operations.
		p.ServerPkts = float64(packets()-pktsBefore) / float64(w.Ops)
	}
	return p, nil
}

// FormatTransportPoints renders the comparison.
func FormatTransportPoints(points []TransportPoint) string {
	base := map[passthru.Mode]map[string]TransportPoint{}
	faulty := false
	for _, p := range points {
		if base[p.Mode] == nil {
			base[p.Mode] = map[string]TransportPoint{}
		}
		base[p.Mode][p.Transport] = p
		if p.TCPRetransmits+p.RPCRetransmits+p.Errors > 0 {
			faulty = true
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Transport comparison: NFS all-hit 32 KB over UDP vs TCP (§5.5 extension)\n")
	fmt.Fprintf(&b, "%-10s %-5s %12s %9s %9s %12s\n", "config", "xport", "MB/s", "ops/s", "srvCPU%", "pkts/req")
	for _, p := range points {
		fmt.Fprintf(&b, "%-10s %-5s %12.1f %9.0f %9.1f %12.1f\n",
			p.Mode, p.Transport, p.ThroughputMBs, p.OpsPerSec, p.ServerCPU*100, p.ServerPkts)
	}
	for _, mode := range []passthru.Mode{passthru.Original, passthru.NCache} {
		u, okU := base[mode]["udp"]
		t, okT := base[mode]["tcp"]
		if okU && okT && t.ThroughputMBs > 0 {
			fmt.Fprintf(&b, "%s: TCP costs %.1f%% of UDP throughput (%.1f vs %.1f pkts/req)\n",
				mode, (1-t.ThroughputMBs/u.ThroughputMBs)*100, t.ServerPkts, u.ServerPkts)
		}
	}
	if faulty {
		b.WriteString("\nloss recovery (injected faults):\n")
		fmt.Fprintf(&b, "%-10s %-5s %9s %7s %8s %9s %6s\n",
			"config", "xport", "tcpRtx", "rtos", "fastRtx", "rpcRtx", "errs")
		for _, p := range points {
			fmt.Fprintf(&b, "%-10s %-5s %9d %7d %8d %9d %6d\n",
				p.Mode, p.Transport, p.TCPRetransmits, p.TCPRTOs, p.TCPFastRtx,
				p.RPCRetransmits, p.Errors)
		}
	}
	return b.String()
}
