package storage

import (
	"testing"

	"ncache/internal/blockdev"
	"ncache/internal/netbuf"
	"ncache/internal/sim"
	"ncache/internal/simnet"
)

// parkedIni is an Initiator that allocates nothing once primed: it parks
// every command's completion until land, answers reads with zeroed pool
// chains and drops written payloads, so an allocation gate above it counts
// only the volume's own.
type parkedIni struct {
	geo    blockdev.Geometry
	pool   *netbuf.Pool
	reads  []parkedRead
	writes []func(error)
}

type parkedRead struct {
	n    int
	done func(*netbuf.Chain, error)
}

func newParkedIni(pool *netbuf.Pool) *parkedIni {
	return &parkedIni{geo: blockdev.Geometry{BlockSize: 512, NumBlocks: 256}, pool: pool}
}

func (p *parkedIni) Geometry() blockdev.Geometry { return p.geo }

func (p *parkedIni) Read(lba int64, blocks int, meta bool, done func(*netbuf.Chain, error)) {
	p.reads = append(p.reads, parkedRead{n: blocks * p.geo.BlockSize, done: done})
}

func (p *parkedIni) Write(lba int64, data *netbuf.Chain, meta bool, done func(error)) {
	data.Release()
	p.writes = append(p.writes, done)
}

// land completes every parked command, reads first.
func (p *parkedIni) land() {
	for i, r := range p.reads {
		data, _ := p.pool.GetZeroChain(r.n)
		p.reads[i] = parkedRead{}
		r.done(data, nil)
	}
	for i, done := range p.writes {
		p.writes[i] = nil
		done(nil)
	}
	p.reads, p.writes = p.reads[:0], p.writes[:0]
}

// TestArmWriteReadZeroAllocs: once primed, a write and a read through a
// one-arm mirror and through a healthy two-arm mirror (one clone per leg,
// primary-first reads) allocate nothing on the host — each command rides a
// recycled record whose completion is bound once, and the read order and
// write legs live in their records.
func TestArmWriteReadZeroAllocs(t *testing.T) {
	if netbuf.DebugEnabled() {
		t.Skip("nothing is recycled in debug mode")
	}
	eng := sim.NewEngine()
	node := simnet.NewNode(eng, "app", simnet.DefaultProfile())
	pool := netbuf.NewPool("arm", netbuf.DefaultHeadroom, netbuf.DefaultBufSize, 0)
	single := newParkedIni(pool)
	legs := []*parkedIni{newParkedIni(pool), newParkedIni(pool)}
	one := NewMirror(node, []string{"one"}, []Initiator{single}, PolicyPrimaryFirst)
	m := NewMirror(node, []string{"a", "b"}, []Initiator{legs[0], legs[1]}, PolicyPrimaryFirst)
	vols := []Volume{one, m}
	inis := []*parkedIni{single, legs[0], legs[1]}
	settled := 0
	wrote := func(err error) {
		if err != nil {
			t.Errorf("write: %v", err)
		}
		settled++
	}
	read := func(data *netbuf.Chain, err error) {
		if err != nil || data.Len() != 4*512 {
			t.Errorf("read: %v", err)
		}
		if data != nil {
			data.Release()
		}
		settled++
	}
	step := func() {
		for _, v := range vols {
			data, _ := pool.GetZeroChain(4 * 512)
			v.WriteAt(8, data, false, wrote)
			v.ReadAt(8, 4, false, read)
		}
		for _, ini := range inis {
			ini.land()
		}
	}
	for i := 0; i < 4; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(100, step); avg != 0 {
		t.Errorf("a write and a read on a one-arm and on a two-arm mirror allocate %.1f objects, want 0", avg)
	}
	if want := 4 * (4 + 101); settled != want {
		t.Fatalf("%d commands settled, want %d", settled, want)
	}
	if st := one.Stats()[0]; st.Writes != 4+101 || st.Reads != 4+101 {
		t.Fatalf("one-arm mirror: %+v", st)
	}
	if m.Stats()[0].Writes != 4+101 || m.Stats()[1].Writes != 4+101 || m.Stats()[1].Reads != 0 {
		t.Fatalf("two-arm mirror: %+v", m.Stats())
	}
	pool.MustBeDrained()
}
