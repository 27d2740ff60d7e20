package passthru

import (
	"bytes"
	"testing"

	"ncache/internal/extfs"
	"ncache/internal/netbuf"
	"ncache/internal/nfs"
	"ncache/internal/sim"
	"ncache/internal/simnet"
)

// killScene is a one-server write-back cluster with a 32-block buffer cache
// (admission stalls at 8 dirty blocks) over disks that take 2 ms per I/O,
// under a burst of 48 block WRITEs with a READ of an uncached block after
// every sixth, issued at once. step advances it by a microsecond.
type killScene struct {
	cl     *Cluster
	spec   extfs.FileSpec
	fh     nfs.FH
	acked  map[int]bool
	reads  int
	wrote  func(i int) []byte
	errors int
}

const (
	killWrites = 48
	killReads  = 8
)

func newKillScene(t *testing.T) *killScene {
	t.Helper()
	cl, err := NewCluster(ClusterConfig{
		Mode:          NCache,
		NumClients:    1,
		BlocksPerDisk: 16 * 1024,
		FSCacheBlocks: 32,
		FaultSpec:     "slowdisk:disk*:rate=1:delay=2ms",
		FaultSeed:     7,
		Writeback:     WritebackConfig{Enabled: true},
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	fmtr, err := extfs.Format(cl.Storage.Array, 1024)
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	spec, err := fmtr.AddFile("data.bin", 64*extfs.BlockSize, fileContent)
	if err != nil {
		t.Fatalf("AddFile: %v", err)
	}
	if err := fmtr.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := cl.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	s := &killScene{cl: cl, spec: spec, fh: lookupFile(t, cl, "data.bin"), acked: map[int]bool{}}
	s.wrote = func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, extfs.BlockSize) }
	c, bs := cl.Clients[0].NFS, extfs.BlockSize
	c.SetRetransmit(faultRPCRTO, faultRPCTries)
	cl.Faults.Arm()
	for i := 0; i < killWrites; i++ {
		c.WriteBytes(s.fh, uint64(i*bs), s.wrote(i), func(n int, _ nfs.Attr, err error) {
			if err != nil || n != bs {
				s.errors++
				return
			}
			s.acked[i] = true
		})
		if i%(killWrites/killReads) != 0 {
			continue
		}
		off := uint64((48 + i/(killWrites/killReads)) * bs)
		c.Read(s.fh, off, bs, func(data *netbuf.Chain, _ nfs.Attr, err error) {
			if err != nil || !bytes.Equal(data.Flatten(), expect(off, bs)) {
				s.errors++
			} else {
				s.reads++
			}
			if data != nil {
				data.Release()
			}
		})
	}
	return s
}

func (s *killScene) step(t *testing.T) {
	t.Helper()
	s.cl.Eng.RunFor(sim.Microsecond)
}

// inFlight reports whether a READ waits for its server CPU charge, a WRITE
// is parked at the admission gate and a flush batch is on its way to the
// platter (issued, none landed).
func (s *killScene) inFlight() bool {
	app := s.cl.App
	readQueued := app.NFS.Ops[nfs.ProcRead] > app.Node.Reqs.ReadOps
	parked := app.WB.Stalls > 0 && app.WB.StallNs == 0
	landed := false
	for i := 0; i < killWrites; i++ {
		landed = landed || bytes.Equal(s.cl.Storage.Array.PeekBlock(s.spec.StartLBN+int64(i)), s.wrote(i))
	}
	return readQueued && parked && app.WB.FlushBatches > 0 && !landed
}

// txFrames counts the frames the app node's NICs were charged to send.
func txFrames(n *simnet.Node) uint64 {
	var tx uint64
	for _, nic := range n.NICs() {
		tx += nic.Stats.PacketsTx
	}
	return tx
}

// TestFaultWritebackKillEverythingInFlight kills the server while a flush
// batch, a WAL group commit, a READ's CPU charge and an admission-stalled
// WRITE are all in flight. The kill instant comes from a first run of the
// same deterministic scene: the first microsecond at which the three
// observable conditions hold and a group commit, which takes a fixed 20 µs,
// lands within the next 19. Killed there, the node launches no frame until
// the restart; the group in flight never becomes durable, not even after
// the restart, which replays exactly the records durable at the kill; the
// resent operations all complete, the platter holds every acknowledged
// block, and every node's pools drain.
func TestFaultWritebackKillEverythingInFlight(t *testing.T) {
	const horizon = 2000 // µs: the first flush lands 2 ms after it issues
	dry := newKillScene(t)
	kill := -1
	var ok []bool
	var commits []uint64
	for i := 0; i < horizon; i++ {
		dry.step(t)
		ok = append(ok, dry.inFlight())
		commits = append(commits, dry.cl.App.WB.WALCommits)
	}
	for i := 0; i+19 < horizon && kill < 0; i++ {
		if ok[i] && commits[i+19] > commits[i] {
			kill = i
		}
	}
	if kill < 0 {
		t.Fatal("no microsecond has a flush batch, a group commit, a READ charge and a stalled WRITE all in flight")
	}

	s := newKillScene(t)
	for i := 0; i <= kill; i++ {
		s.step(t)
	}
	app := s.cl.App
	if !s.inFlight() {
		t.Fatal("the replayed scene diverged from the first run")
	}
	durable := app.journal.Records()
	seqs := make([]uint64, len(durable))
	for i, r := range durable {
		seqs[i] = r.Seq
	}
	app.Crash()
	tx := txFrames(app.Node)
	s.cl.Eng.RunFor(10 * sim.Millisecond)
	if got := txFrames(app.Node); got != tx {
		t.Errorf("the killed node launched %d frames charged after the kill", got-tx)
	}
	if got := app.journal.Records(); len(got) != len(seqs) {
		t.Fatalf("%d durable records at the restart, %d at the kill: the group in flight landed", len(got), len(seqs))
	}
	for i, r := range app.journal.Records() {
		if r.Seq != seqs[i] {
			t.Fatalf("durable record %d is seq %d at the restart, %d at the kill", i, r.Seq, seqs[i])
		}
	}
	restarted := false
	app.Restart(func(err error) {
		if err != nil {
			t.Fatalf("Restart: %v", err)
		}
		restarted = true
	})
	run(t, s.cl)
	if !restarted || s.errors != 0 || len(s.acked) != killWrites || s.reads != killReads {
		t.Fatalf("restarted=%v: %d of %d WRITEs and %d of %d READs completed, %d failed",
			restarted, len(s.acked), killWrites, s.reads, killReads, s.errors)
	}
	s.cl.Faults.Quiesce()
	for i := 0; i < killWrites; i++ {
		if got := s.cl.Storage.Array.PeekBlock(s.spec.StartLBN + int64(i)); !bytes.Equal(got, s.wrote(i)) {
			t.Errorf("block %d: the platter holds %#x..., not the acked %#x", i, got[0], i+1)
		}
		if got := readFile(t, s.cl, s.fh, uint64(i*extfs.BlockSize), extfs.BlockSize); !bytes.Equal(got, s.wrote(i)) {
			t.Errorf("block %d reads back %#x..., not the acked %#x", i, got[0], i+1)
		}
	}
	app.Module.DropClean()
	nodes := []*simnet.Node{app.Node, s.cl.Storage.Node}
	for _, h := range s.cl.Clients {
		nodes = append(nodes, h.Node)
	}
	checkNodesDrained(t, nodes)
}
