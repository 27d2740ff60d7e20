package passthru

import (
	"bytes"
	"strings"
	"testing"

	"ncache/internal/extfs"
	"ncache/internal/netbuf"
	"ncache/internal/nfs"
	"ncache/internal/sim"
)

// TestCrashLeavesCallRecordsUnrecycled kills the server with 8 READs and 8
// WRITEs inside the daemon — every one of them on a record that has served an
// earlier operation — and restarts it. No completion of the killed
// incarnation runs, so none of those records retires: not to the dead
// backend's free list, nor to the free list of the backend the restart
// boots, which serves the resent calls and 200 more operations on records of
// its own, every reply carrying its own request's bytes.
func TestCrashLeavesCallRecordsUnrecycled(t *testing.T) {
	cl, _ := writebackCluster(t, "")
	fh := lookupFile(t, cl, "data.bin")
	c, b := cl.Clients[0].NFS, cl.App.backend
	c.SetRetransmit(faultRPCRTO, faultRPCTries)
	bs := extfs.BlockSize
	block := func(i int) uint64 { return uint64(i) * uint64(bs) }
	marked := func(m int) []byte { return bytes.Repeat([]byte{byte(m)}, bs) }

	// burst issues 8 READs of blocks r.. and 8 WRITEs of blocks w.., all at
	// once; every reply is checked against its own request.
	burst := func(r, w, marker int) *int {
		ok := new(int)
		for i := 0; i < 8; i++ {
			i := i
			c.Read(fh, block(r+i), bs, func(data *netbuf.Chain, _ nfs.Attr, err error) {
				if err != nil {
					t.Errorf("READ block %d: %v", r+i, err)
					return
				}
				if got := data.Flatten(); !bytes.Equal(got, expect(block(r+i), bs)) {
					t.Errorf("READ block %d carries another request's bytes (%#x...)", r+i, got[:4])
				}
				data.Release()
				*ok++
			})
			c.WriteBytes(fh, block(w+i), marked(marker+i), func(n int, _ nfs.Attr, err error) {
				if err != nil || n != bs {
					t.Errorf("WRITE block %d: %d bytes, %v", w+i, n, err)
					return
				}
				*ok++
			})
		}
		return ok
	}

	// A first burst runs to completion: 16 records, all back on the free list.
	ok := burst(0, 32, 1)
	run(t, cl)
	if *ok != 16 {
		t.Fatalf("warm-up burst: %d of 16 operations completed", *ok)
	}
	warm := map[*backendCall]bool{}
	for _, k := range b.calls {
		warm[k] = true
	}
	if !netbuf.DebugEnabled() && len(warm) != 16 {
		t.Fatalf("%d records on the free list after a burst of 16, want 16", len(warm))
	}

	// The second burst reads blocks no cache holds, so its READs are still at
	// the storage server while the WRITEs arrive and wait for their group
	// commit: step until half of the 16 are inside the backend (the rest are
	// on the wire or in the RPC layers, and die with the server there), then
	// kill it.
	ok = burst(16, 40, 101)
	inFlight := map[*backendCall]bool{}
	for steps := 0; len(inFlight) < 8; steps++ {
		if steps > 1000 || *ok > 0 {
			t.Fatalf("never had 8 operations in the backend at once (%d in flight, %d done)", len(inFlight), *ok)
		}
		cl.Eng.RunFor(5 * sim.Microsecond)
		if netbuf.DebugEnabled() {
			if steps == 30 {
				break // nothing is recycled, so nothing to count: kill at 150 µs
			}
			continue
		}
		for k := range warm {
			inFlight[k] = true
		}
		for _, k := range b.calls {
			delete(inFlight, k)
		}
	}
	cl.App.Crash()
	// The disk I/O in flight at the kill lands while the server is down (10
	// ms is inside the client's resend interval); its completions belong to
	// the dead incarnation and never run.
	cl.Eng.RunFor(10 * sim.Millisecond)
	restarted := false
	cl.App.Restart(func(err error) {
		if err != nil {
			t.Fatalf("Restart: %v", err)
		}
		restarted = true
	})
	run(t, cl) // the client resends all 16 to the restarted server
	if !restarted || *ok != 16 {
		t.Fatalf("restarted=%v, %d of 16 resent operations completed", restarted, *ok)
	}
	if cl.App.backend == b {
		t.Fatal("the restart serves on the killed incarnation's backend")
	}

	// 200 more operations, each issued from the completion of the last:
	// write a marker, read it back, read a block of the original content.
	// (Whether a write acked across the kill is still there is
	// TestFaultWritebackFlushAfterKillKeepsJournal's business, not the
	// records'.)
	done := 0
	var next func()
	next = func() {
		i := done
		if i == 200 {
			return
		}
		blk, m := 48+(i/3)%16, 1+i%250
		switch i % 3 {
		case 0:
			c.WriteBytes(fh, block(blk), marked(m), func(n int, _ nfs.Attr, err error) {
				if err != nil || n != bs {
					t.Fatalf("op %d: WRITE block %d: %d bytes, %v", i, blk, n, err)
				}
				done++
				next()
			})
		default:
			want := marked(m - 1) // what op i-1 wrote
			if i%3 == 2 {
				blk = (i / 3) % 24
				want = expect(block(blk), bs)
			}
			c.Read(fh, block(blk), bs, func(data *netbuf.Chain, _ nfs.Attr, err error) {
				if err != nil {
					t.Fatalf("op %d: READ block %d: %v", i, blk, err)
				}
				if got := data.Flatten(); !bytes.Equal(got, want) {
					t.Fatalf("op %d: READ block %d carries %#x..., want %#x...", i, blk, got[:4], want[:4])
				}
				data.Release()
				done++
				next()
			})
		}
	}
	next()
	run(t, cl)
	if done != 200 {
		t.Fatalf("%d of 200 operations completed", done)
	}
	for _, calls := range [][]*backendCall{b.calls, cl.App.backend.calls} {
		for _, k := range calls {
			if inFlight[k] {
				t.Fatalf("record %p was abandoned at the crash and is on a free list again", k)
			}
		}
	}
}

// TestBackendRecordPoisonedInDebugMode: under netbuf debug mode a retired
// backend record is abandoned, not recycled, and a file-system completion
// that fires for it a second time panics instead of ending another operation.
func TestBackendRecordPoisonedInDebugMode(t *testing.T) {
	was := netbuf.DebugEnabled()
	netbuf.SetDebug(true)
	defer netbuf.SetDebug(was)
	cl, _ := testCluster(t, NCache, false)
	b := cl.App.backend
	ended := 0
	k := b.call(nfs.ProcRemove)
	k.doneStatus = func(uint32) { ended++ }
	k.gotErr(nil)
	if ended != 1 || len(b.calls) != 0 {
		t.Fatalf("operation ended %d times; debug mode recycled %d records", ended, len(b.calls))
	}
	defer func() {
		if p := recover(); p == nil || !strings.Contains(p.(string), "retired twice") {
			t.Errorf("second completion: recovered %v, want a panic mentioning \"retired twice\"", p)
		}
	}()
	k.gotErr(nil)
}
