package passthru

import (
	"bytes"
	"fmt"
	"strconv"

	"ncache/internal/controlplane"
	"ncache/internal/fault"
	"ncache/internal/netbuf"
	"ncache/internal/nfs"
	"ncache/internal/proto/eth"
	"ncache/internal/proto/ipv4"
	"ncache/internal/proto/tcp"
	"ncache/internal/proto/udp"
	"ncache/internal/sim"
	"ncache/internal/simnet"
	"ncache/internal/storage"
)

// ClientHost is one client machine: a node with full protocol stacks, an
// NFS client, and HTTP connections on demand.
type ClientHost struct {
	Node *simnet.Node
	UDP  *udp.Transport
	TCP  *tcp.Transport
	Addr eth.Addr
	NFS  *nfs.Client

	nextPort uint16
}

// NewClientHost builds and attaches a client over a link with the given
// one-way latency (the fabric floor for LAN-local clients; wider for
// clients reaching the cluster over a longer path).
func NewClientHost(eng *sim.Engine, nw *simnet.Network, name string, addr eth.Addr, cost simnet.CostProfile, bw simnet.Bandwidth, latency sim.Duration) (*ClientHost, error) {
	node := simnet.NewNode(eng, name, cost)
	if _, err := nw.AttachAt(node, addr, bw, latency); err != nil {
		return nil, err
	}
	ip := ipv4.NewStack(node)
	return &ClientHost{
		Node:     node,
		UDP:      udp.NewTransport(ip),
		TCP:      tcp.NewTransport(ip),
		Addr:     addr,
		nextPort: 700,
	}, nil
}

// MountNFS creates the host's NFS client against a server address.
func (c *ClientHost) MountNFS(server eth.Addr) error {
	port := c.nextPort
	c.nextPort++
	cl, err := nfs.NewClient(c.UDP, c.Addr, port, server)
	if err != nil {
		return err
	}
	c.NFS = cl
	return nil
}

// NewNFSClient creates an additional independent NFS client (its own port),
// used to model multiple client processes on one host.
func (c *ClientHost) NewNFSClient(server eth.Addr) (*nfs.Client, error) {
	port := c.nextPort
	c.nextPort++
	return nfs.NewClient(c.UDP, c.Addr, port, server)
}

// DialNFSTCP connects an NFS client over TCP (the transport-comparison
// extension) and hands it to done once established.
func (c *ClientHost) DialNFSTCP(server eth.Addr, done func(*nfs.Client, error)) {
	nfs.DialClientStream(c.TCP, c.Addr, server, done)
}

// HTTPConn is one persistent web connection issuing sequential GETs.
type HTTPConn struct {
	host *ClientHost
	conn *tcp.Conn

	buf      bytes.Buffer
	expected int // body bytes still outstanding for the current response
	inBody   bool
	done     func(int, error)
	bodyLen  int
}

// DialHTTP opens a persistent connection to the web server.
func (c *ClientHost) DialHTTP(server eth.Addr, done func(*HTTPConn, error)) {
	c.TCP.Connect(c.Addr, server, HTTPPort, func(conn *tcp.Conn, err error) {
		if err != nil {
			done(nil, err)
			return
		}
		h := &HTTPConn{host: c, conn: conn}
		conn.SetReceiver(h.receive)
		done(h, nil)
	})
}

// Get requests a path; done receives the body length. One request may be
// outstanding per connection.
func (h *HTTPConn) Get(path string, done func(int, error)) {
	if h.done != nil {
		done(0, fmt.Errorf("http: request already outstanding"))
		return
	}
	h.done = done
	h.bodyLen = 0
	req := "GET /" + path + " HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
	if err := h.conn.Send([]byte(req)); err != nil {
		h.done = nil
		done(0, err)
	}
}

// receive parses response framing. Body bytes are counted, not copied: the
// client does not interpret payloads (baseline junk must flow as happily as
// real data), matching §5.1.
func (h *HTTPConn) receive(data *netbuf.Chain) {
	for {
		if h.inBody {
			n := data.Len()
			if h.buf.Len() > 0 {
				// Leftover header-buffer bytes belong to the body.
				take := h.buf.Len()
				if take > h.expected {
					take = h.expected
				}
				h.buf.Next(take)
				h.expected -= take
				h.bodyLen += take
			}
			if n > 0 {
				take := n
				if take > h.expected {
					take = h.expected
				}
				consumed, _ := data.PullChain(take) // in range: take is at most n
				consumed.Release()
				h.expected -= take
				h.bodyLen += take
			}
			if h.expected > 0 {
				break
			}
			h.inBody = false
			done := h.done
			h.done = nil
			if done != nil {
				done(h.bodyLen, nil)
			}
			if data.Len() == 0 && h.buf.Len() == 0 {
				break
			}
			continue
		}
		// Header phase: accumulate until the blank line.
		if data.Len() > 0 {
			_ = data.Range(0, data.Len(), func(p []byte) { h.buf.Write(p) })
			rel, _ := data.PullChain(data.Len())
			rel.Release()
		}
		raw := h.buf.Bytes()
		end := bytes.Index(raw, []byte("\r\n\r\n"))
		if end < 0 {
			break
		}
		header := string(raw[:end])
		h.buf.Next(end + 4)
		h.expected = contentLength(header)
		h.bodyLen = 0
		h.inBody = true
	}
	data.Release()
}

// contentLength extracts the Content-Length header.
func contentLength(header string) int {
	const key = "Content-Length: "
	i := bytes.Index([]byte(header), []byte(key))
	if i < 0 {
		return 0
	}
	j := i + len(key)
	k := j
	for k < len(header) && header[k] >= '0' && header[k] <= '9' {
		k++
	}
	n, err := strconv.Atoi(header[j:k])
	if err != nil {
		return 0
	}
	return n
}

// FabricLatency is the switch's one-way port latency.
const FabricLatency = 5 * sim.Microsecond

// Cluster bundles a full testbed: storage, app server(s), clients, fabric.
type Cluster struct {
	Eng *sim.Engine
	Net *simnet.Network
	// Storage/App are the first (or only) storage target and front-end
	// server — the 1×1 testbed's names. Storages/Apps hold the full
	// scale-out sets (length 1 on the classic testbed).
	Storage  *StorageServer
	App      *AppServer
	Storages []*StorageServer
	// StorageArms indexes the storage nodes as [target][arm]: arm 0 is the
	// primary (same object as Storages[target]), arms 1+ are mirror
	// replicas. Storages stays flat — primaries first, then arm 1 of every
	// target, then arm 2, ... — so Storages[t] keeps meaning target t.
	StorageArms [][]*StorageServer
	Apps        []*AppServer
	// Control is the control-plane service (nil unless NumServers > 1).
	Control *controlplane.Server
	Clients []*ClientHost
	// Targets routes LBN ranges to storage targets (nil on a single
	// target).
	Targets *storage.TargetMap
	// Faults is the injector wired into every data-path resource when the
	// config carries a fault spec (nil otherwise). It starts disarmed;
	// experiments call Faults.Arm() once setup is done and Faults.Quiesce()
	// before the final drain.
	Faults *fault.Injector
	// scaleClients lists the routed client sets NewScaleClient has built, so
	// fault wiring and the recovery counters reach their per-server clients.
	scaleClients []*ScaleClient
}

// ClusterConfig sizes a testbed.
type ClusterConfig struct {
	Mode       Mode
	ServerNICs int
	// NumServers front-end pass-through servers share NumTargets iSCSI
	// targets (both default to 1 — the paper's testbed). More than one
	// server brings up the control plane for remap coherence.
	NumServers int
	NumTargets int
	// Arms replicates every iSCSI target across this many mirror arms
	// (default 1 = no replication). Each extra arm is its own storage
	// node; writes fan out to all healthy arms, reads pick one by
	// ArmPolicy, and a per-arm circuit breaker ejects and resyncs failed
	// arms while another arm keeps serving.
	Arms int
	// ArmPolicy is the mirror read-selection policy: "primary-first"
	// (default), "round-robin" or "least-latency".
	ArmPolicy  string
	NumClients int
	// BlocksPerDisk sizes every disk of every storage node; there is no
	// default.
	BlocksPerDisk int64
	// FSCacheBlocks bounds each server's file-system buffer cache (0 = 128 MB;
	// 16 MB under NCache, which keeps it small to control double buffering,
	// §3.4). NCacheBytes sizes the network-centric cache (NCache mode only;
	// 0 = 512 MB).
	FSCacheBlocks int
	NCacheBytes   int64
	DisableRemap  bool
	EnableWeb     bool
	Cost          simnet.CostProfile
	// FaultSpec installs a fault-injection schedule (see fault.ParseSpec);
	// empty means a fault-free testbed. FaultSeed selects the replayable
	// random streams (zero means seed 1).
	FaultSpec string
	FaultSeed uint64
	// Workers is accepted and ignored. Inert shim: it selected the deleted
	// sharded engine's worker count, and benchmarks/ncmark still sets it
	// (DESIGN.md §11).
	Workers int
	// ClientLinkLatency is the one-way latency of every client's link into
	// the fabric (0 = FabricLatency). Slower client links model clients one
	// LAN hop away.
	ClientLinkLatency sim.Duration
	// ControlLinkLatency is the one-way latency of the control-plane node's
	// link (0 = FabricLatency). The control plane is a management node off
	// the data path — its protocol is idempotent and retried on a 10 ms
	// RTO — so it may sit a LAN hop away.
	ControlLinkLatency sim.Duration
	// Writeback enables the asynchronous write-back pipeline on every
	// front-end server (see WritebackConfig).
	Writeback WritebackConfig
}

// Fault-recovery calibration used when a fault spec is present: NFS clients
// — the hosts' mounts and the routed per-server sets alike — resend a call
// after the round trip they have measured to its server and never sooner
// than 20 ms (doubling, 5 tries; sunrpc.SetRetransmit), and the iSCSI
// initiator retries CHECK CONDITION commands 3 times after 500 µs.
const (
	faultRPCRTO     = 20 * sim.Millisecond
	faultRPCTries   = 5
	faultISCSITries = 3
	faultISCSIRetry = 500 * sim.Microsecond
)

// Well-known fabric addresses.
const (
	StorageAddr eth.Addr = 0x0a000001 // +1 per extra target
	ServerAddr  eth.Addr = 0x0a000010 // +ServerAddrStride per server, +1 per extra NIC
	ControlAddr eth.Addr = 0x0a0000f0 // the control-plane service
	ClientAddr0 eth.Addr = 0x0a000100 // +1 per client
)

// ServerAddrStride spaces front-end servers' address blocks (bounding a
// server to 8 NICs).
const ServerAddrStride = 8

// The address plan's capacity: every server's block lies below ControlAddr,
// and every storage node (one per target per mirror arm) below ServerAddr.
const (
	maxServers      = int(ControlAddr-ServerAddr) / ServerAddrStride
	maxStorageNodes = int(ServerAddr - StorageAddr)
)

// ServerAddrOf returns front-end server i's first NIC address.
func ServerAddrOf(i int) eth.Addr { return ServerAddr + eth.Addr(i*ServerAddrStride) }

// StorageAddrOf returns the address of mirror arm `arm` of storage target
// `target` in a cluster of numTargets targets: the primaries (arm 0) first,
// then arm 1 of every target, then arm 2, ...
func StorageAddrOf(target, arm, numTargets int) eth.Addr {
	return StorageAddr + eth.Addr(target+numTargets*arm)
}

// NewCluster assembles the testbed of §5.2 — or, with NumServers/NumTargets
// above one, the scale-out cluster: N front-end servers over M sharded
// targets coordinated by a control-plane node. Call Start to log in and
// mount.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.ServerNICs <= 0 {
		cfg.ServerNICs = 1
	}
	if cfg.ServerNICs > ServerAddrStride {
		return nil, fmt.Errorf("passthru: at most %d NICs per server", ServerAddrStride)
	}
	if cfg.NumServers <= 0 {
		cfg.NumServers = 1
	}
	if cfg.NumServers > maxServers {
		return nil, fmt.Errorf("passthru: at most %d servers (their address blocks end at ControlAddr)", maxServers)
	}
	if cfg.NumTargets <= 0 {
		cfg.NumTargets = 1
	}
	if cfg.Arms <= 0 {
		cfg.Arms = 1
	}
	if cfg.NumTargets*cfg.Arms > maxStorageNodes {
		return nil, fmt.Errorf("passthru: at most %d storage nodes, NumTargets×Arms (their addresses end at ServerAddr)", maxStorageNodes)
	}
	if cfg.NumClients <= 0 {
		cfg.NumClients = 2
	}
	if cfg.Cost == (simnet.CostProfile{}) {
		cfg.Cost = simnet.DefaultProfile()
	}
	if cfg.ClientLinkLatency <= 0 {
		cfg.ClientLinkLatency = FabricLatency
	}
	if cfg.ControlLinkLatency <= 0 {
		cfg.ControlLinkLatency = FabricLatency
	}
	if cfg.FSCacheBlocks <= 0 {
		cfg.FSCacheBlocks = 32768 // 128 MB page cache
		if cfg.Mode == NCache {
			// Small FS cache, large network-centric cache (§3.4/§4.1).
			cfg.FSCacheBlocks = 4096 // 16 MB
		}
	}
	if cfg.NCacheBytes <= 0 {
		cfg.NCacheBytes = 512 << 20
	}
	eng := sim.NewEngine()
	nw := simnet.NewNetwork(eng, FabricLatency)

	cl := &Cluster{Eng: eng, Net: nw}
	if cfg.NumTargets > 1 {
		cl.Targets = storage.NewTargetMap(cfg.NumTargets)
	}

	// Every mirror arm is a full storage node of its own (disks, target,
	// fabric port): arm 0 of target t is storage<t> with fault sites
	// s<t>.disk* (plain "storage"/"disk*" for target 0, the testbed's
	// names), arm a > 0 is storage<t>m<a> with s<t>m<a>.disk*, so injection
	// can kill one replica precisely.
	cl.StorageArms = make([][]*StorageServer, cfg.NumTargets)
	for a := 0; a < cfg.Arms; a++ {
		for j := 0; j < cfg.NumTargets; j++ {
			name, disks := "storage", "disk"
			switch {
			case a > 0:
				name, disks = fmt.Sprintf("storage%dm%d", j, a), fmt.Sprintf("s%dm%d.disk", j, a)
			case j > 0:
				name, disks = fmt.Sprintf("storage%d", j), fmt.Sprintf("s%d.disk", j)
			}
			ss, err := NewStorageServer(eng, nw, name, disks, StorageAddrOf(j, a, cfg.NumTargets), cfg.BlocksPerDisk, cfg.Cost)
			if err != nil {
				return nil, err
			}
			cl.Storages = append(cl.Storages, ss)
			cl.StorageArms[j] = append(cl.StorageArms[j], ss)
		}
	}
	cl.Storage = cl.Storages[0]

	if cfg.NumServers > 1 {
		cpNode := simnet.NewNode(eng, "cp", cfg.Cost)
		if _, err := nw.AttachAt(cpNode, ControlAddr, simnet.Gbps, cfg.ControlLinkLatency); err != nil {
			return nil, fmt.Errorf("cp attach: %w", err)
		}
		cpUDP := udp.NewTransport(ipv4.NewStack(cpNode))
		serverAddrs := make([]eth.Addr, cfg.NumServers)
		for i := range serverAddrs {
			serverAddrs[i] = ServerAddrOf(i)
		}
		var err error
		if cl.Control, err = controlplane.NewServer(cpUDP, serverAddrs); err != nil {
			return nil, err
		}
	}

	for i := 0; i < cfg.NumServers; i++ {
		app, err := NewAppServer(eng, nw, cfg, i, cl.Targets)
		if err != nil {
			return nil, err
		}
		cl.Apps = append(cl.Apps, app)
	}
	cl.App = cl.Apps[0]

	for i := 0; i < cfg.NumClients; i++ {
		host, err := NewClientHost(eng, nw, fmt.Sprintf("client%d", i),
			ClientAddr0+eth.Addr(i), cfg.Cost, simnet.Gbps, cfg.ClientLinkLatency)
		if err != nil {
			return nil, err
		}
		cl.Clients = append(cl.Clients, host)
	}
	if cfg.FaultSpec != "" {
		if _, err := cl.InstallFaults(cfg.FaultSeed, cfg.FaultSpec); err != nil {
			return nil, err
		}
	}
	return cl, nil
}

// InstallFaults wires a fault-injection schedule into every data-path
// resource: the fabric, each storage node's disks and CPU (mirror arms
// included), each app server's CPU, kill hook and iSCSI retry policy, the
// control plane and the clients. NewCluster calls it when the config
// carries a FaultSpec; experiments that need injection windows anchored
// after setup call it directly once setup's virtual time is known (a
// schedule's start/end are absolute). The injector starts disarmed; NFS
// clients already mounted or routed get their retransmission timers here,
// later ones in Start and NewScaleClient.
func (c *Cluster) InstallFaults(seed uint64, spec string) (*fault.Injector, error) {
	in, err := fault.NewFromSpec(c.Eng, seed, spec)
	if err != nil {
		return nil, err
	}
	if in == nil {
		return nil, nil
	}
	c.Net.SetFaults(in)
	for _, ss := range c.Storages {
		for _, d := range ss.Array.Disks() {
			d.SetFaults(in)
		}
		in.AttachCPU(ss.Node.Name+".cpu", ss.Node.CPU)
	}
	for _, app := range c.Apps {
		app := app
		in.AttachCPU(app.Node.Name+".cpu", app.Node.CPU)
		in.AttachKill(app.Node.Name, app.Crash)
		app.setRetry(faultISCSITries, faultISCSIRetry)
	}
	if c.Control != nil {
		in.AttachCPU("cp.cpu", c.Control.Node().CPU)
	}
	for _, host := range c.Clients {
		in.AttachCPU(host.Node.Name+".cpu", host.Node.CPU)
	}
	for _, nc := range c.nfsClients() {
		nc.SetRetransmit(faultRPCRTO, faultRPCTries)
	}
	c.Faults = in
	return in, nil
}

// Start completes the asynchronous bring-up and runs the engine until every
// server is serving.
func (c *Cluster) Start() error {
	pending := len(c.Apps)
	var startErr error
	for _, app := range c.Apps {
		app.Start(func(err error) {
			if err != nil && startErr == nil {
				startErr = err
			}
			pending--
		})
	}
	c.Eng.Run()
	if pending != 0 {
		return fmt.Errorf("passthru: server bring-up did not complete (%d pending)", pending)
	}
	if startErr != nil {
		return startErr
	}
	for i, host := range c.Clients {
		// Spread clients across the servers and their NICs (Fig 5(b)).
		app := c.Apps[i%len(c.Apps)]
		nic := app.Node.NICs()[(i/len(c.Apps))%len(app.Node.NICs())]
		if err := host.MountNFS(nic.Addr); err != nil {
			return err
		}
		c.armRetransmit(host.NFS)
	}
	return nil
}

// Close does nothing. Inert shim: it released the deleted sharded engine's
// worker pool, and benchmarks/ncmark still calls it (DESIGN.md §11).
func (c *Cluster) Close() {}

// armRetransmit gives an NFS client built after InstallFaults its resend
// timer: injected frame loss would hang calls forever on the testbed's
// lossless-fabric default.
func (c *Cluster) armRetransmit(nc *nfs.Client) {
	if c.Faults != nil {
		nc.SetRetransmit(faultRPCRTO, faultRPCTries)
	}
}

// nfsClients lists every NFS client of the testbed: each host's mount, once
// it exists, and every routed client set's per-server clients.
func (c *Cluster) nfsClients() []*nfs.Client {
	var out []*nfs.Client
	for _, host := range c.Clients {
		if host.NFS != nil {
			out = append(out, host.NFS)
		}
	}
	for _, sc := range c.scaleClients {
		out = append(out, sc.NFS...)
	}
	return out
}

// FaultCounters aggregates recovery activity across the testbed: RPC
// retransmissions, abandoned calls and suppressed duplicate replies over all
// NFS clients, plus iSCSI command retries at the app server.
func (c *Cluster) FaultCounters() (retrans, timeouts, dups, iscsiRetries uint64) {
	for _, nc := range c.nfsClients() {
		if rpc := nc.DatagramRPC(); rpc != nil {
			retrans += rpc.Retransmits
			timeouts += rpc.Timeouts
			dups += rpc.DupReplies
		}
	}
	for _, app := range c.Apps {
		for _, ini := range app.Initiators {
			iscsiRetries += ini.Retries
		}
	}
	return
}

// TCPCounters aggregates TCP loss-recovery activity across every transport
// in the testbed (storage, app server, clients): segments retransmitted,
// RTO and fast-retransmit events, plus the counters that must stay zero on
// a correct run — true protocol errors and aborted connections.
func (c *Cluster) TCPCounters() (retrans, rtos, fastrtx, protoErrs, aborted uint64) {
	add := func(t *tcp.Transport) {
		retrans += t.Retransmits
		rtos += t.RTOEvents
		fastrtx += t.FastRetransmits
		protoErrs += t.ProtocolErrors
		aborted += t.AbortedConns
	}
	for _, storage := range c.Storages {
		add(storage.TCP)
	}
	for _, app := range c.Apps {
		add(app.TCP)
	}
	for _, host := range c.Clients {
		add(host.TCP)
	}
	return
}
