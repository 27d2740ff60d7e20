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

// AppServer is the pass-through server under test.
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
	// Volume is the storage lower tier: per-target single-arm or mirror
	// volumes under the mode's interception, sharded by the TargetMap when
	// the backend has several targets. Everything above (buffer cache, WAL
	// replay) writes here.
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
	// retrying against a pinned buffer-cache block (pathological).
	InvalDropGiveups uint64

	cfg          ClusterConfig
	backend      *fsBackend
	connectAddrs []eth.Addr // parallels Initiators
	crashed      bool
}

// NewAppServer builds and attaches front-end server index of the cluster
// cfg describes (cfg as NewCluster completed it: every default applied);
// Start completes the iSCSI login and mount. targets places LBN ranges onto
// the cluster's storage targets (nil = a single target).
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
	ip := ipv4.NewStack(node)
	udpT := udp.NewTransport(ip)
	tcpT := tcp.NewTransport(ip)

	s := &AppServer{Node: node, Mode: cfg.Mode, UDP: udpT, TCP: tcpT, cfg: cfg}
	if cfg.Mode == NCache {
		s.Module = ncache.New(node, ncache.Config{
			CapacityBytes: cfg.NCacheBytes,
			BlockSize:     extfs.BlockSize,
			DisableRemap:  cfg.DisableRemap,
		})
	}

	// One session per (target, arm), and one volume per target: the single
	// session, or a mirror over the target's arms.
	vols := make([]storage.Volume, cfg.NumTargets)
	for t := range vols {
		names := make([]string, cfg.Arms)
		arms := make([]storage.Initiator, cfg.Arms)
		for a := range arms {
			ini := iscsi.NewInitiator(node, tcpT, local)
			s.Initiators = append(s.Initiators, ini)
			s.connectAddrs = append(s.connectAddrs, StorageAddrOf(t, a, cfg.NumTargets))
			names[a], arms[a] = fmt.Sprintf("t%dm%d", t, a), ini
		}
		var vol storage.Volume = storage.NewSingleArm(fmt.Sprintf("t%d", t), arms[0])
		if cfg.Arms > 1 {
			if vol, err = storage.NewMirror(node, names, arms, storage.MirrorConfig{Policy: armPolicy}); err != nil {
				return nil, err
			}
		}
		vols[t] = s.intercept(vol)
	}
	s.Initiator = s.Initiators[0]
	if len(vols) == 1 {
		s.Volume = vols[0]
	} else {
		s.Volume = storage.NewSharded(vols, targets)
	}
	if cfg.NumServers > 1 {
		if s.Agent, err = controlplane.NewAgent(node, udpT, local, ControlAddr, index); err != nil {
			return nil, err
		}
		s.Agent.SetInvalidate(s.ApplyInvalidate)
	}
	return s, nil
}

// ApplyInvalidate drops remotely-remapped blocks from this server's caches
// (the control-plane invalidation path). NCache entries go at once; a
// buffer-cache block that is pinned or mid-flush is retried briefly — the
// pin is a transient read in flight, and the retry preserves "no stale
// mapping outlives the remap ack" without wedging the protocol.
func (s *AppServer) ApplyInvalidate(lbns []int64) {
	for _, lbn := range lbns {
		s.dropInvalid(lbn, 0)
	}
	s.Node.Charge(sim.Duration(len(lbns))*s.Node.Cost.NCacheMgmtNs, nil)
}

// invalDropTries bounds the pinned-block retry loop.
const invalDropTries = 8

func (s *AppServer) dropInvalid(lbn int64, tries int) {
	if s.Module != nil {
		s.Module.InvalidateLBN(lbn)
	}
	if s.Cache == nil || s.Cache.Drop(lbn) {
		return
	}
	if tries >= invalDropTries {
		s.InvalDropGiveups++
		return
	}
	s.Node.Eng.Schedule(sim.Millisecond, func() { s.dropInvalid(lbn, tries+1) })
}

// Start logs in to the storage targets, mounts the file system, and brings
// up the NFS (and optionally web) services.
func (s *AppServer) Start(done func(error)) {
	s.connectTargets(0, func(err error) {
		if err != nil {
			done(fmt.Errorf("iscsi connect: %w", err))
			return
		}
		s.startServices(done)
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
	s.Cache.LogicalCopyNs = s.Node.Cost.LogicalCopyNs
	if wbc := s.cfg.Writeback; wbc.Enabled {
		s.WB = &metrics.Writeback{}
		s.Cache.SetWritebackStats(s.WB)
		// Admission stalls with a quarter of the cache dirty and resumes
		// at an eighth.
		s.Cache.EnableFlusher(s.cfg.FSCacheBlocks / 4)
		if !wbc.WriteThrough {
			s.WAL = wal.New(s.Node.Eng, wal.Config{}, s.WB)
			// Each landed batch retires the WAL prefix whose blocks are
			// all clean again — but not while the server is down: a batch
			// issued before a crash that lands after it would judge the
			// records against the emptied cache, find nothing dirty and
			// drop what replay still has to apply.
			s.Cache.SetFlushObserver(func() {
				if !s.crashed {
					s.WAL.Truncate(s.Cache.IsDirty)
				}
			})
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

// Crash models a deterministic process kill of the application server: the
// buffer cache, NCache module, and the WAL's volatile state (staged and
// in-flight groups — their acks never fired) vanish; durable WAL groups
// survive for replay. In-flight network and disk I/O issued before the kill
// completes normally — the crash is a process death, not a partition — but
// generation guards discard the completions and the crashed flag drops every
// later NFS request on the floor, so clients fall back to RPC retransmit
// until Restart.
func (s *AppServer) Crash() {
	if s.crashed {
		return
	}
	s.crashed = true
	if s.Cache != nil {
		s.Cache.Reset()
	}
	if s.Module != nil {
		s.Module.Reset()
	}
	if s.WAL != nil {
		s.WAL.Crash()
	}
}

// Restart recovers a crashed server: every durable WAL record is replayed to
// storage strictly in sequence order (record N's writes land before N+1
// issues, preserving overlap ordering), its payload verified against the
// journaled checksum. Replay writes raw bytes — the FHO cache died with the
// process — and once all land, the replayed LBNs are announced to the
// control plane so no peer serves a pre-crash version of them, the log is
// truncated, and the server resumes serving. The iSCSI sessions and mounted
// super-block are reused (a real restart would re-login and re-read the
// super-block; neither changes any modeled outcome).
func (s *AppServer) Restart(done func(error)) {
	if !s.crashed {
		done(fmt.Errorf("passthru: restart of a live server"))
		return
	}
	if s.WAL == nil {
		s.crashed = false
		done(nil)
		return
	}
	recs := s.WAL.DurableRecords()
	bs := extfs.BlockSize
	var replayed []int64
	var next func(i int)
	next = func(i int) {
		if i >= len(recs) {
			if s.Agent != nil && len(replayed) > 0 {
				s.Agent.SendRemap(replayed)
			}
			s.WAL.Truncate(func(int64) bool { return false })
			s.crashed = false
			done(nil)
			return
		}
		rec := recs[i]
		if netbuf.Sum(rec.Data) != rec.Sum {
			done(fmt.Errorf("passthru: wal record %d fails its checksum on replay", rec.Seq))
			return
		}
		// Coalesce the record's adjacent LBNs into runs and rewrite them.
		var writeRun func(start int)
		writeRun = func(start int) {
			if start >= len(rec.LBNs) {
				next(i + 1)
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
	next(0)
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
