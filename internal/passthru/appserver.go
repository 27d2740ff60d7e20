package passthru

import (
	"encoding/binary"
	"fmt"

	"ncache/internal/buffercache"
	"ncache/internal/controlplane"
	"ncache/internal/extfs"
	"ncache/internal/iscsi"
	"ncache/internal/metrics"
	"ncache/internal/ncache"
	"ncache/internal/netbuf"
	"ncache/internal/nfs"
	"ncache/internal/proto/eth"
	"ncache/internal/proto/ipv4"
	"ncache/internal/proto/tcp"
	"ncache/internal/proto/udp"
	"ncache/internal/sim"
	"ncache/internal/simnet"
	"ncache/internal/storage"
	"ncache/internal/wal"
)

// WritebackConfig enables the asynchronous write-back pipeline: NFS WRITEs
// are journaled to a write-ahead log and acknowledged at group commit, while
// a batching flusher coalesces dirty blocks into large scatter-gather iSCSI
// writes behind the ack. Zero value = the classic synchronous path.
type WritebackConfig struct {
	Enabled bool
	// WriteThrough keeps the WAL machinery off even when Enabled is set —
	// the equal-durability comparison arm: every aligned WRITE applies and
	// syncs before its ack.
	WriteThrough bool
}

// AppServer is the pass-through server under test: a machine (its node,
// NICs and addresses, and the machine fields) that lives as long as the
// cluster, and a process that boot builds and a kill ends whole. The
// exported process fields name the live boot's objects (after a Crash, the
// dead one's until Restart).
type AppServer struct {
	Node *simnet.Node
	Mode Mode
	UDP  *udp.Transport
	TCP  *tcp.Transport
	// Initiator is the first (or only) target's primary session;
	// Initiators flattens every session — targets in order, each target's
	// mirror arms in order — for fault wiring and stats.
	Initiator  *iscsi.Initiator
	Initiators []*iscsi.Initiator
	// Volume is the storage lower tier: one mirror per target, over its
	// one or more arms, under the mode's interception, sharded by the
	// TargetMap when the backend has several targets. Everything above
	// (buffer cache, WAL replay) writes here.
	Volume storage.Volume
	Cache  *buffercache.Cache
	FS     *extfs.FS
	// NFS is one protocol server facing both transports: datagram RPC over
	// UDP and record-marked RPC over TCP (the transport-comparison
	// extension). One tx filter covers both.
	NFS    *nfs.Server
	Web    *WebServer
	Module *ncache.Module
	// Agent is this server's control-plane endpoint (nil outside
	// scale-out clusters).
	Agent *controlplane.Agent
	// WAL journals write intent ahead of the ack when the write-back
	// pipeline is on (nil otherwise); WB carries its shared counters.
	WAL *wal.Log
	WB  *metrics.Writeback

	// InvalDropGiveups counts remote invalidations given up on after
	// retrying against a buffer-cache block still filling (pathological).
	InvalDropGiveups uint64

	machine
	backend      *fsBackend
	connectAddrs []eth.Addr // parallels Initiators
}

// machine is what of a server outlives its process: the cluster's
// description of it, the WAL's durable half (empty without a WAL) and the
// iSCSI retry policy every boot's sessions get.
type machine struct {
	cfg          ClusterConfig
	index        int
	targets      *storage.TargetMap
	armPolicy    storage.Policy
	journal      *wal.Journal
	retryMax     int
	retryBackoff sim.Duration
}

// NewAppServer builds and attaches front-end server index of the cluster
// cfg describes (cfg as NewCluster completed it: every default applied) and
// boots its process; Start brings it up. targets places LBN ranges onto the
// cluster's storage targets (nil = a single target).
func NewAppServer(eng *sim.Engine, nw *simnet.Network, cfg ClusterConfig, index int, targets *storage.TargetMap) (*AppServer, error) {
	armPolicy, err := storage.ParsePolicy(cfg.ArmPolicy)
	if err != nil {
		return nil, err
	}
	name := "app" // the single-server testbed
	if cfg.NumServers > 1 {
		name = fmt.Sprintf("app%d", index)
	}
	node := simnet.NewNode(eng, name, cfg.Cost)
	local := ServerAddrOf(index)
	for n := 0; n < cfg.ServerNICs; n++ { // Fig 5(b) uses two
		if _, err := nw.Attach(node, local+eth.Addr(n), simnet.Gbps); err != nil {
			return nil, fmt.Errorf("app attach: %w", err)
		}
	}
	s := &AppServer{Node: node, Mode: cfg.Mode, machine: machine{
		cfg: cfg, index: index, targets: targets, armPolicy: armPolicy, journal: &wal.Journal{}}}
	return s, s.boot()
}

// boot builds a server process from the machine alone, up to the iSCSI
// login: the network stacks, the NCache module, one session per (target,
// arm), one volume per target — a mirror over its arms — and the
// control-plane agent. startServices builds the rest.
func (s *AppServer) boot() error {
	*s = AppServer{Node: s.Node, Mode: s.Mode, InvalDropGiveups: s.InvalDropGiveups, machine: s.machine}
	cfg, node, local := s.cfg, s.Node, ServerAddrOf(s.index)
	ip := ipv4.NewStack(node)
	s.UDP, s.TCP = udp.NewTransport(ip), tcp.NewTransport(ip)
	if cfg.Mode == NCache {
		s.Module = ncache.New(node, ncache.Config{
			CapacityBytes: cfg.NCacheBytes,
			BlockSize:     extfs.BlockSize,
			DisableRemap:  cfg.DisableRemap,
		})
	}
	vols := make([]storage.Volume, cfg.NumTargets)
	for t := range vols {
		names := make([]string, cfg.Arms)
		arms := make([]storage.Initiator, cfg.Arms)
		for a := range arms {
			ini := iscsi.NewInitiator(node, s.TCP, local)
			ini.SetRetry(s.retryMax, s.retryBackoff)
			s.Initiators = append(s.Initiators, ini)
			s.connectAddrs = append(s.connectAddrs, StorageAddrOf(t, a, cfg.NumTargets))
			names[a], arms[a] = fmt.Sprintf("t%dm%d", t, a), ini
		}
		vols[t] = s.intercept(storage.NewMirror(node, names, arms, s.armPolicy))
	}
	s.Initiator = s.Initiators[0]
	if len(vols) == 1 {
		s.Volume = vols[0]
	} else {
		s.Volume = storage.NewSharded(vols, s.targets)
	}
	if cfg.NumServers > 1 {
		var err error
		if s.Agent, err = controlplane.NewAgent(s.UDP, local, ControlAddr, s.index); err != nil {
			return err
		}
		s.Agent.SetInvalidate(s.ApplyInvalidate)
	}
	return nil
}

// setRetry gives every iSCSI session, this boot's and later ones', the
// CHECK CONDITION retry policy.
func (s *AppServer) setRetry(max int, backoff sim.Duration) {
	s.retryMax, s.retryBackoff = max, backoff
	for _, ini := range s.Initiators {
		ini.SetRetry(max, backoff)
	}
}

// ApplyInvalidate drops remotely-remapped blocks from this server's caches
// (the control-plane invalidation path). The buffer-cache block goes first,
// then the NCache entry, so no logical block outlives the entry its key
// names: a pinned block is detached, and a logical one is materialized
// first, so the read composing its reply from it keeps the old bytes while
// every read that starts later misses. A block still filling is retried
// briefly, entry and all — the retry preserves "no stale mapping outlives
// the remap ack" without wedging the protocol.
func (s *AppServer) ApplyInvalidate(lbns []int64) {
	for _, lbn := range lbns {
		s.dropInvalid(lbn, 0)
	}
	s.Node.Charge(sim.Duration(len(lbns))*s.Node.Cost.NCacheMgmtNs, nil)
}

// invalDropTries bounds the filling-block retry loop.
const invalDropTries = 8

func (s *AppServer) dropInvalid(lbn int64, tries int) {
	if s.Cache != nil {
		if b := s.Cache.Pinned(lbn); b != nil && b.Logical {
			s.materialize(b)
		}
		if !s.Cache.Drop(lbn) {
			if tries >= invalDropTries {
				s.InvalDropGiveups++
				return
			}
			s.Node.Schedule(sim.Millisecond, func() { s.dropInvalid(lbn, tries+1) })
			return
		}
	}
	if s.Module != nil {
		s.Module.InvalidateLBN(lbn)
	}
}

// Start brings a booted process up, crash-only style: every start is a
// recovery. It logs in to the storage targets, replays the journal (empty
// unless a kill left records), mounts the file system, brings up the NFS
// (and optionally web) services, and retires the replayed records.
func (s *AppServer) Start(done func(error)) {
	s.connectTargets(0, func(err error) {
		if err != nil {
			done(fmt.Errorf("iscsi connect: %w", err))
			return
		}
		s.replay(0, nil, func(err error) {
			if err != nil {
				done(err)
				return
			}
			s.startServices(func(err error) {
				if err == nil && s.WAL != nil {
					s.WAL.Truncate(func(int64) bool { return false })
				}
				done(err)
			})
		})
	})
}

// connectTargets logs in to every iSCSI session (targets and their mirror
// arms) in order.
func (s *AppServer) connectTargets(i int, done func(error)) {
	if i >= len(s.Initiators) {
		done(nil)
		return
	}
	s.Initiators[i].Connect(s.connectAddrs[i], func(err error) {
		if err != nil {
			done(err)
			return
		}
		s.connectTargets(i+1, done)
	})
}

// startServices mounts the file system and brings up the protocol servers.
func (s *AppServer) startServices(done func(error)) {
	s.Cache = buffercache.New(s.Node, s.Volume, s.cfg.FSCacheBlocks)
	if s.Module != nil {
		s.Module.Attach(s.Cache)
	}
	if s.cfg.Writeback.Enabled {
		s.WB = &metrics.Writeback{}
		s.Cache.SetWritebackStats(s.WB)
		// Admission stalls with a quarter of the cache dirty and resumes
		// at an eighth.
		s.Cache.EnableFlusher(s.cfg.FSCacheBlocks / 4)
		if !s.cfg.Writeback.WriteThrough {
			s.WAL = wal.Open(s.Node, s.journal, s.WB)
			// Each landed batch retires the WAL prefix whose blocks are
			// all clean again.
			s.Cache.SetFlushObserver(func() { s.WAL.Truncate(s.Cache.IsDirty) })
		}
	}
	extfs.Mount(s.Node, s.Cache, func(fs *extfs.FS, err error) {
		if err != nil {
			done(fmt.Errorf("mount: %w", err))
			return
		}
		s.FS = fs
		fs.SetMaterializer(s.materialize)
		s.backend = &fsBackend{srv: s}
		nfsSrv := nfs.NewServer(s.Node, s.backend)
		if err := nfsSrv.ServeUDP(s.UDP); err != nil {
			done(err)
			return
		}
		if err := nfsSrv.ServeStream(s.TCP); err != nil {
			done(err)
			return
		}
		if s.Mode == NCache {
			nfsSrv.SetTxFilter(s.Module.SubstituteMessage)
		}
		s.NFS = nfsSrv
		if s.cfg.EnableWeb {
			web, err := NewWebServer(s)
			if err != nil {
				done(err)
				return
			}
			s.Web = web
		}
		done(nil)
	})
}

// Crash kills the server process (Node.Kill): its pending timers and
// completions never run, its buffers go back to their pools, and the node
// answers nothing until Restart; I/O already on the wire lands, and its reply
// finds no port. Only the machine survives: the journal keeps the committed
// WAL records, not the staged or committing ones, which were never acked. A
// mirror's arm states and dirty logs were the process's and die with it.
func (s *AppServer) Crash() { s.Node.Kill() }

// Restart kills whatever process still runs on the node and starts a new
// one (boot, Start): its recovery replays the journal strictly in sequence
// order (record N's writes land before N+1 issues, preserving overlap
// ordering), each payload verified against its journaled checksum, and
// announces the replayed LBNs to the control plane so no peer serves a
// pre-crash version of them before the server serves again.
func (s *AppServer) Restart(done func(error)) {
	s.Node.Kill()
	if err := s.boot(); err != nil {
		done(err)
		return
	}
	s.Start(done)
}

// replay rewrites the journal's records from the i-th on and announces
// every replayed LBN once all have landed. Replay writes raw bytes: the FHO
// cache died with the process.
func (s *AppServer) replay(i int, replayed []int64, done func(error)) {
	recs := s.journal.Records()
	if i >= len(recs) {
		if s.Agent != nil && len(replayed) > 0 {
			s.Agent.SendRemap(replayed)
		}
		done(nil)
		return
	}
	rec, bs := recs[i], extfs.BlockSize
	if netbuf.Sum(rec.Data) != rec.Sum {
		done(fmt.Errorf("passthru: wal record %d fails its checksum on replay", rec.Seq))
		return
	}
	// Coalesce the record's adjacent LBNs into runs and rewrite them.
	var writeRun func(start int)
	writeRun = func(start int) {
		if start >= len(rec.LBNs) {
			s.replay(i+1, replayed, done)
			return
		}
		end := start + 1
		for end < len(rec.LBNs) && rec.LBNs[end] == rec.LBNs[end-1]+1 {
			end++
		}
		replayed = append(replayed, rec.LBNs[start:end]...)
		s.Volume.WriteAt(rec.LBNs[start], s.Node.TxPool.GetChain(rec.Data[start*bs:end*bs]), false, func(err error) {
			if err != nil {
				done(err)
				return
			}
			writeRun(end)
		})
	}
	writeRun(0)
}

// inoFH converts an inode number to a file handle.
func inoFH(ino uint32) nfs.FH {
	var fh nfs.FH
	binary.BigEndian.PutUint32(fh[0:4], ino)
	return fh
}

// fhIno extracts the inode number.
func fhIno(fh nfs.FH) uint32 { return binary.BigEndian.Uint32(fh[0:4]) }

// attrOf converts file system attributes to protocol attributes.
func attrOf(a extfs.Attr) nfs.Attr {
	t := nfs.TypeFile
	if a.Mode == extfs.ModeDir {
		t = nfs.TypeDir
	}
	return nfs.Attr{Type: t, Links: uint32(a.Links), Size: a.Size}
}
