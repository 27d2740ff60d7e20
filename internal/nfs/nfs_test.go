package nfs

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"ncache/internal/netbuf"
	"ncache/internal/proto/eth"
	"ncache/internal/proto/ipv4"
	"ncache/internal/proto/udp"
	"ncache/internal/sim"
	"ncache/internal/simnet"
	"ncache/internal/sunrpc"
)

// memBackend is an in-memory Backend for protocol-level tests, independent
// of the file system.
type memBackend struct {
	pool  *netbuf.Pool      // READ replies are built on it
	files map[uint32][]byte // ino → content
	names map[string]uint32
	next  uint32
}

func newMemBackend(pool *netbuf.Pool) *memBackend {
	return &memBackend{
		pool:  pool,
		files: map[uint32][]byte{},
		names: map[string]uint32{},
		next:  2,
	}
}

func inoOf(fh FH) uint32 {
	return uint32(fh[0])<<24 | uint32(fh[1])<<16 | uint32(fh[2])<<8 | uint32(fh[3])
}

func fhOf(ino uint32) FH {
	var fh FH
	fh[0], fh[1], fh[2], fh[3] = byte(ino>>24), byte(ino>>16), byte(ino>>8), byte(ino)
	return fh
}

func (m *memBackend) attr(ino uint32) Attr {
	if ino == 1 {
		return Attr{Type: TypeDir, Links: 1}
	}
	return Attr{Type: TypeFile, Links: 1, Size: uint64(len(m.files[ino]))}
}

func (m *memBackend) Getattr(fh FH, done func(Attr, uint32)) {
	ino := inoOf(fh)
	if ino != 1 {
		if _, ok := m.files[ino]; !ok {
			done(Attr{}, ErrNoEnt)
			return
		}
	}
	done(m.attr(ino), OK)
}

func (m *memBackend) Lookup(dir FH, name []byte, done func(FH, Attr, uint32)) {
	ino, ok := m.names[string(name)]
	if !ok {
		done(FH{}, Attr{}, ErrNoEnt)
		return
	}
	done(fhOf(ino), m.attr(ino), OK)
}

func (m *memBackend) Read(fh FH, off uint64, n int, done func(*netbuf.Chain, Attr, uint32)) {
	ino := inoOf(fh)
	f, ok := m.files[ino]
	if !ok {
		done(nil, Attr{}, ErrNoEnt)
		return
	}
	if off > uint64(len(f)) {
		off = uint64(len(f))
	}
	end := off + uint64(n)
	if end > uint64(len(f)) {
		end = uint64(len(f))
	}
	done(m.pool.GetChain(f[off:end]), m.attr(ino), OK)
}

func (m *memBackend) Write(fh FH, off uint64, data *netbuf.Chain, done func(int, Attr, uint32)) {
	ino := inoOf(fh)
	f, ok := m.files[ino]
	if !ok {
		data.Release()
		done(0, Attr{}, ErrNoEnt)
		return
	}
	p := data.Flatten()
	data.Release()
	need := off + uint64(len(p))
	if uint64(len(f)) < need {
		f = append(f, make([]byte, need-uint64(len(f)))...)
	}
	copy(f[off:], p)
	m.files[ino] = f
	done(len(p), m.attr(ino), OK)
}

func (m *memBackend) Create(dir FH, name []byte, isDir bool, done func(FH, Attr, uint32)) {
	if _, exists := m.names[string(name)]; exists {
		done(FH{}, Attr{}, ErrExist)
		return
	}
	ino := m.next
	m.next++
	m.names[string(name)] = ino
	m.files[ino] = nil
	done(fhOf(ino), m.attr(ino), OK)
}

func (m *memBackend) Remove(dir FH, name []byte, done func(uint32)) {
	ino, ok := m.names[string(name)]
	if !ok {
		done(ErrNoEnt)
		return
	}
	delete(m.names, string(name))
	delete(m.files, ino)
	done(OK)
}

func (m *memBackend) Readdir(dir FH, done func(Names, uint32)) {
	out := make(nameList, 0, len(m.names))
	for n := range m.names {
		out = append(out, []byte(n))
	}
	done(out, OK)
}

// nameList is a listing held as separate names.
type nameList [][]byte

func (l nameList) Len() int          { return len(l) }
func (l nameList) Name(i int) []byte { return l[i] }

var _ Backend = (*memBackend)(nil)

// loop builds a client/server pair over the simulated fabric.
func loop(t *testing.T) (*sim.Engine, *Client, *memBackend, *Server) {
	t.Helper()
	eng := sim.NewEngine()
	nw := simnet.NewNetwork(eng, 5*sim.Microsecond)
	sn := simnet.NewNode(eng, "server", simnet.DefaultProfile())
	cn := simnet.NewNode(eng, "client", simnet.DefaultProfile())
	if _, err := nw.Attach(sn, 1, simnet.Gbps); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Attach(cn, 2, simnet.Gbps); err != nil {
		t.Fatal(err)
	}
	sUDP := udp.NewTransport(ipv4.NewStack(sn))
	cUDP := udp.NewTransport(ipv4.NewStack(cn))
	backend := newMemBackend(sn.TxPool)
	srv := NewServer(sn, backend)
	if err := srv.ServeUDP(sUDP); err != nil {
		t.Fatalf("ServeUDP: %v", err)
	}
	client, err := NewClient(cUDP, eth.Addr(2), 700, eth.Addr(1))
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	return eng, client, backend, srv
}

func TestProtocolLifecycle(t *testing.T) {
	eng, c, _, srv := loop(t)
	var fh FH
	c.Create(RootFH(), "f.txt", func(h FH, a Attr, err error) {
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		if a.Type != TypeFile {
			t.Fatalf("attr = %+v", a)
		}
		fh = h
	})
	eng.Run()

	payload := bytes.Repeat([]byte{0x42}, 10000)
	c.WriteBytes(fh, 0, payload, func(n int, a Attr, err error) {
		if err != nil || n != len(payload) {
			t.Fatalf("Write: n=%d err=%v", n, err)
		}
		if a.Size != uint64(len(payload)) {
			t.Fatalf("size = %d", a.Size)
		}
	})
	eng.Run()

	c.Read(fh, 100, 5000, func(data *netbuf.Chain, a Attr, err error) {
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		got := data.Flatten()
		data.Release()
		if !bytes.Equal(got, payload[100:5100]) {
			t.Fatal("read payload mismatch")
		}
	})
	eng.Run()

	c.Getattr(fh, func(a Attr, err error) {
		if err != nil || a.Size != 10000 {
			t.Fatalf("Getattr: %+v %v", a, err)
		}
	})
	// SETATTR is not served: sunrpc answers it as an unknown procedure.
	msg, e := c.fhArgs(fh, 8)
	e.Uint64(500)
	k := c.newCall(replyAttr)
	k.doneAttr = func(_ Attr, err error) {
		var op *OpError
		if !errors.As(err, &op) || op.Status != ErrIO {
			t.Fatalf("SETATTR: %v, want an I/O error", err)
		}
	}
	k.call(ProcSetattr, msg, nil)
	eng.Run()
	if srv.rpc.BadCalls != 1 {
		t.Fatalf("SETATTR: %d bad calls at the RPC server, want 1", srv.rpc.BadCalls)
	}

	c.Lookup(RootFH(), "f.txt", func(h FH, _ Attr, err error) {
		if err != nil || h != fh {
			t.Fatalf("Lookup: %v %v", h, err)
		}
	})
	c.Readdir(RootFH(), func(names []string, err error) {
		if err != nil || len(names) != 1 || names[0] != "f.txt" {
			t.Fatalf("Readdir: %v %v", names, err)
		}
	})
	eng.Run()

	c.Remove(RootFH(), "f.txt", func(err error) {
		if err != nil {
			t.Fatalf("Remove: %v", err)
		}
	})
	eng.Run()
	c.Lookup(RootFH(), "f.txt", func(_ FH, _ Attr, err error) {
		var op *OpError
		if !errors.As(err, &op) || op.Status != ErrNoEnt {
			t.Fatalf("Lookup after remove: %v", err)
		}
	})
	eng.Run()
	if srv.Ops[ProcCreate] != 1 || srv.Ops[ProcRead] != 1 || srv.Ops[ProcWrite] != 1 {
		t.Fatalf("op counters: %+v", srv.Ops)
	}
}

func TestErrorStatuses(t *testing.T) {
	eng, c, _, _ := loop(t)
	ghost := fhOf(99)
	c.Getattr(ghost, func(_ Attr, err error) {
		var op *OpError
		if !errors.As(err, &op) || op.Status != ErrNoEnt {
			t.Fatalf("Getattr ghost: %v", err)
		}
	})
	c.Read(ghost, 0, 100, func(_ *netbuf.Chain, _ Attr, err error) {
		if err == nil {
			t.Fatal("Read ghost succeeded")
		}
	})
	eng.Run()
	c.Create(RootFH(), "dup", func(_ FH, _ Attr, err error) {
		if err != nil {
			t.Fatal(err)
		}
		c.Create(RootFH(), "dup", func(_ FH, _ Attr, err error) {
			var op *OpError
			if !errors.As(err, &op) || op.Status != ErrExist {
				t.Fatalf("dup create: %v", err)
			}
		})
	})
	eng.Run()
}

func TestReadClampsToMaxSize(t *testing.T) {
	eng, c, b, _ := loop(t)
	var fh FH
	c.Create(RootFH(), "big", func(h FH, _ Attr, err error) { fh = h })
	eng.Run()
	b.files[inoOf(fh)] = make([]byte, 2*MaxReadSize)
	var got int
	c.Read(fh, 0, 3*MaxReadSize, func(data *netbuf.Chain, _ Attr, err error) {
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		got = data.Len()
		data.Release()
	})
	eng.Run()
	if got != MaxReadSize {
		t.Fatalf("read returned %d, want clamp to %d", got, MaxReadSize)
	}
}

func TestOpErrorMessages(t *testing.T) {
	for st, want := range map[uint32]string{
		ErrNoEnt:    "no such file",
		ErrExist:    "file exists",
		ErrNotDir:   "not a directory",
		ErrIsDir:    "is a directory",
		ErrNotEmpty: "not empty",
		ErrNoSpc:    "no space",
		ErrIO:       "I/O",
		999:         "error",
	} {
		err := StatusError(st)
		if err == nil {
			t.Fatalf("StatusError(%d) = nil", st)
		}
		if !bytes.Contains([]byte(err.Error()), []byte(want)) {
			t.Fatalf("StatusError(%d) = %q, want substring %q", st, err, want)
		}
	}
	if StatusError(OK) != nil {
		t.Fatal("StatusError(OK) != nil")
	}
}

// A call whose arguments do not parse is answered with a bare error status
// and reaches no backend; NULL is answered with an empty result, and a
// procedure the server does not serve is refused by the RPC layer.
func TestMalformedCallsAnswerErrors(t *testing.T) {
	eng, c, _, _ := loop(t)
	fh := RootFH()
	long := make([]byte, 4+260)
	long[2] = 1 // a 256-byte name, one past MaxNameLen
	cases := []struct {
		name string
		proc uint32
		args []byte
		want []byte // the reply's result bytes
	}{
		{"NULL", ProcNull, nil, nil},
		{"GETATTR without a handle", ProcGetattr, fh[:FHLen-1], []byte{0, 0, 0, byte(ErrIO)}},
		{"LOOKUP without a name", ProcLookup, fh[:], []byte{0, 0, 0, byte(ErrIO)}},
		{"LOOKUP of a name too long", ProcLookup, append(fh[:], long...), []byte{0, 0, 0, byte(ErrNameLong)}},
		{"READ without its counts", ProcRead, fh[:], []byte{0, 0, 0, byte(ErrIO)}},
		{"WRITE without its counts", ProcWrite, fh[:], []byte{0, 0, 0, byte(ErrIO)}},
		{"WRITE shorter than its count", ProcWrite, append(fh[:], 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 16, 0, 0, 0, 16), []byte{0, 0, 0, byte(ErrIO)}},
		{"CREATE without a name", ProcCreate, fh[:], []byte{0, 0, 0, byte(ErrIO)}},
		{"REMOVE without a name", ProcRemove, fh[:], []byte{0, 0, 0, byte(ErrIO)}},
		{"READDIR without a handle", ProcReaddir, nil, []byte{0, 0, 0, byte(ErrIO)}},
		{"an unknown procedure", 99, fh[:], nil},
	}
	for _, tc := range cases {
		msg, p := sunrpc.CallBuf(c.rpc.Node(), len(tc.args))
		copy(p, tc.args)
		var got []byte
		answered := false
		if err := c.rpc.Call(Prog, Vers, tc.proc, msg, nil, func(r sunrpc.Reply, err error) {
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
				return
			}
			if tc.proc == 99 && r.Accept != sunrpc.AcceptProcUnavail {
				t.Errorf("%s: accept %d, want %d", tc.name, r.Accept, sunrpc.AcceptProcUnavail)
			}
			answered = true
			got = make([]byte, r.Body.Len())
			r.Body.Gather(got)
			r.Body.Release()
		}); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		eng.Run()
		if !answered || !bytes.Equal(got, tc.want) {
			t.Errorf("%s: answered %v with % x, want % x", tc.name, answered, got, tc.want)
		}
	}
}

func TestRootFH(t *testing.T) {
	if inoOf(RootFH()) != 1 {
		t.Fatalf("root fh = %v", RootFH())
	}
}

// TestGetattrAllocBudget: a GETATTR round trip — arguments and result head
// encoded in the buffers they are sent in, every fixed-size header pulled
// into a stack array, and the per-call state of the two RPC layers and the
// protocol client and server each in one recycled record — allocates nothing.
func TestGetattrAllocBudget(t *testing.T) {
	if netbuf.DebugEnabled() {
		t.Skip("nothing is recycled in debug mode")
	}
	eng, c, _, _ := loop(t)
	got := 0
	done := func(a Attr, err error) {
		if err != nil || a.Type != TypeDir {
			t.Errorf("Getattr: %+v, %v", a, err)
		}
		got++
	}
	call := func() {
		c.Getattr(RootFH(), done)
		eng.Run()
	}
	for i := 0; i < 8; i++ {
		call()
	}
	if avg := testing.AllocsPerRun(200, call); avg != 0 {
		t.Fatalf("a GETATTR round trip allocates %.1f objects, want 0", avg)
	}
	if got != 8+201 {
		t.Fatalf("%d replies, want %d", got, 8+201)
	}
}

// twiceBackend answers every GETATTR twice.
type twiceBackend struct{ *memBackend }

func (b twiceBackend) Getattr(fh FH, done func(Attr, uint32)) {
	b.memBackend.Getattr(fh, done)
	b.memBackend.Getattr(fh, done)
}

// TestCallRecordsPoisonedInDebugMode: under netbuf debug mode a retired call
// record is abandoned, not recycled, on both sides; a reply delivered to a
// retired client record panics, and so does a backend that calls done twice —
// where, recycling, its second answer would go out under another call's xid.
func TestCallRecordsPoisonedInDebugMode(t *testing.T) {
	was := netbuf.DebugEnabled()
	netbuf.SetDebug(true)
	defer netbuf.SetDebug(was)
	eng, c, backend, srv := loop(t)

	mustPanic := func(what, want string, fn func()) {
		t.Helper()
		defer func() {
			if p := recover(); p == nil || !strings.Contains(p.(string), want) {
				t.Errorf("%s: recovered %v, want a panic mentioning %q", what, p, want)
			}
		}()
		fn()
	}
	msg, _ := c.fhArgs(RootFH(), 0)
	k := c.newCall(replyAttr)
	k.doneAttr = func(a Attr, err error) {
		if err != nil || a.Type != TypeDir {
			t.Errorf("Getattr: %+v, %v", a, err)
		}
	}
	k.call(ProcGetattr, msg, nil)
	eng.Run()
	if len(c.calls) != 0 || len(srv.calls) != 0 {
		t.Fatalf("debug mode recycled %d client and %d server call records", len(c.calls), len(srv.calls))
	}
	mustPanic("second reply", "retired twice", func() { k.onReply(sunrpc.Reply{}, nil) })

	srv.backend = twiceBackend{backend}
	c.Getattr(RootFH(), func(Attr, error) {})
	mustPanic("backend answers twice", "retired twice", func() { eng.Run() })
}

// TestReplyTwiceRetiresOnce: recycling (netbuf debug mode off), a reply
// delivered twice to one client call panics at the second retire, and the
// record sits on the client's free list once — twice, two later calls would
// share it.
func TestReplyTwiceRetiresOnce(t *testing.T) {
	was := netbuf.DebugEnabled()
	netbuf.SetDebug(false)
	defer netbuf.SetDebug(was)
	eng, c, _, _ := loop(t)

	msg, _ := c.fhArgs(RootFH(), 0)
	k := c.newCall(replyAttr)
	heard := 0
	k.doneAttr = func(Attr, error) { heard++ }
	k.call(ProcGetattr, msg, nil)
	eng.Run()
	if heard != 1 {
		t.Fatalf("the caller heard %d replies, want 1", heard)
	}
	func() {
		defer func() {
			if p := recover(); !strings.Contains(fmt.Sprint(p), "retired twice") {
				t.Errorf("second reply: recovered %v, want a panic mentioning \"retired twice\"", p)
			}
		}()
		k.onReply(sunrpc.Reply{}, nil)
	}()
	listed := 0
	for _, r := range c.calls {
		if r == k {
			listed++
		}
	}
	if listed != 1 || heard != 1 {
		t.Fatalf("the record is on the free list %d times and the caller heard %d replies, want 1 and 1", listed, heard)
	}
}

// listBackend answers every READDIR with one fixed listing.
type listBackend struct {
	*memBackend
	list nameList
}

func (b *listBackend) Readdir(dir FH, done func(Names, uint32)) { done(&b.list, OK) }

// TestNamedOpsAllocBudget: a LOOKUP round trip — the name pulled from the
// arguments into the server's call record and lent to the backend as a view
// of it — allocates nothing, and so does a READDIR round trip: the server
// encodes its 150 names straight into pooled transmit buffers, and the
// client gathers the reply into its own buffer and keeps every name of an
// unchanged listing. A listing whose names changed costs the client one
// object, the string the new names are cut from.
func TestNamedOpsAllocBudget(t *testing.T) {
	if netbuf.DebugEnabled() {
		t.Skip("nothing is recycled in debug mode")
	}
	eng, c, backend, srv := loop(t)
	lb := &listBackend{memBackend: backend}
	for i := 0; i < 150; i++ {
		lb.list = append(lb.list, []byte(fmt.Sprintf("file-%03d", i)))
	}
	srv.backend = lb
	c.Create(RootFH(), "f.txt", func(_ FH, _ Attr, err error) {
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
	})
	run := func() {
		eng.Run()
	}
	run()
	found := func(_ FH, _ Attr, err error) {
		if err != nil {
			t.Errorf("Lookup: %v", err)
		}
	}
	lookup := func() {
		c.Lookup(RootFH(), "f.txt", found)
		run()
	}
	listed := 0
	names := func(ns []string, err error) {
		if err != nil || len(ns) != 150 || ns[149] != "file-149" {
			t.Errorf("Readdir: %d names, %v", len(ns), err)
		}
		listed++
	}
	readdir := func() {
		c.Readdir(RootFH(), names)
		run()
	}
	for i := 0; i < 8; i++ {
		lookup()
		readdir()
	}
	if avg := testing.AllocsPerRun(200, lookup); avg != 0 {
		t.Errorf("a LOOKUP round trip allocates %.1f objects, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, readdir); avg != 0 {
		t.Errorf("a READDIR round trip of 150 names allocates %.1f objects, want 0", avg)
	}
	if listed != 8+201 {
		t.Fatalf("%d listings, want %d", listed, 8+201)
	}
	flip, alt := 0, [2][]byte{[]byte("renamed-0"), []byte("renamed-1")}
	renamed := func(ns []string, err error) {
		if err != nil || len(ns) != 150 || ns[7] != string(lb.list[7]) || ns[149] != "file-149" {
			t.Errorf("Readdir after a rename: %d names, %v", len(ns), err)
		}
	}
	rename := func() {
		flip++
		lb.list[7] = alt[flip%2]
		c.Readdir(RootFH(), renamed)
		run()
	}
	rename()
	if avg := testing.AllocsPerRun(200, rename); avg != 1 {
		t.Errorf("a READDIR round trip with a changed name allocates %.1f objects, want 1 (the client's string)", avg)
	}
}
