package main

import (
	"time"

	"ncache/internal/controlplane"
	"ncache/internal/ncache"
	"ncache/internal/netbuf"
	"ncache/internal/sim"
	"ncache/internal/simnet"
	"ncache/internal/wal"
	"ncache/internal/xdr"
)

// Layer kernels: direct calls into one layer's exported functions, at the
// sizes the workloads use, timed from outside. Each runs five rounds of at
// least round and reports the fastest, so a later change to one layer has a
// number that moves with nothing else in the way.

// kernelRound scales a round with the run length: 200 ms at the default 10 s.
func kernelRound(seconds int, quick bool) time.Duration {
	if quick {
		return 2 * time.Millisecond
	}
	return time.Duration(seconds) * time.Second / 50
}

// fastest times body(n) over five rounds of at least round each and returns
// the fastest round's nanoseconds per iteration.
func fastest(round time.Duration, body func(n int)) float64 {
	n := 1
	for {
		start := time.Now()
		body(n)
		if d := time.Since(start); d >= round/4 {
			n = int(float64(n)*float64(round)/float64(d)) + 1
			break
		}
		n *= 4
	}
	best := 0.0
	for i := 0; i < 5; i++ {
		start := time.Now()
		body(n)
		if per := float64(time.Since(start)) / float64(n); i == 0 || per < best {
			best = per
		}
	}
	return best
}

const (
	fragment = 1448 // UDP payload bytes per IP fragment on the simulated wire
	message  = 32 << 10
)

var sink uint64 // keeps kernel results live

func runKernels(round time.Duration) map[string]float64 {
	out := map[string]float64{}

	// netbuf: the Internet checksum over one 32 KB message's fragments,
	// starting at an odd offset so the odd-byte carry path runs.
	buf := make([]byte, message+fragment+1)
	synth(1, buf)
	perMsg := fastest(round, func(n int) {
		for i := 0; i < n; i++ {
			var p netbuf.Partial
			for off := 1; off < 1+message; off += fragment {
				p.AddBytes(buf[off : off+fragment])
			}
			sink += uint64(p.Fold())
		}
	})
	out["netbuf.k_checksum_ns_per_kb"] = perMsg / (float64((message+fragment-1)/fragment*fragment) / 1024)

	// netbuf: clone a 32 KB chain of block buffers, carve one fragment out
	// of it as a sub-chain, release both.
	pool := netbuf.NewPool("k.blk", netbuf.DefaultHeadroom, blockSize, 0)
	chain, err := pool.GetZeroChain(message)
	if err == nil {
		out["netbuf.k_clone_ns"] = fastest(round, func(n int) {
			for i := 0; i < n; i++ {
				c := chain.Clone()
				sub, err := c.SubChain((i%22)*fragment, fragment)
				if err == nil {
					sub.Release()
				}
				c.Release()
			}
		})
		chain.Release()
	}

	// sim: schedule + dispatch with 1 000 timers pending.
	out["sim.k_dispatch_ns"] = fastest(round, func(n int) {
		eng := sim.NewEngine()
		r := rng(1)
		left := n
		var fire func()
		fire = func() {
			if left--; left > 0 {
				eng.Schedule(sim.Duration(1+r.intn(1000))*sim.Microsecond, fire)
			}
		}
		for i := 0; i < 1000; i++ {
			eng.Schedule(sim.Duration(1+r.intn(1000))*sim.Microsecond, fire)
		}
		_ = eng.Run() // no event limit is set, so Run cannot fail
	})

	// xdr: encode and decode a READ reply's header (status, attributes,
	// data length).
	out["xdr.k_roundtrip_ns"] = fastest(round, func(n int) {
		for i := 0; i < n; i++ {
			e := xdr.NewEncoder(24)
			e.Uint32(0)
			e.Uint32(1)
			e.Uint32(1)
			e.Uint64(uint64(i))
			e.Uint32(message)
			d := xdr.NewDecoder(e.Bytes())
			for j := 0; j < 3; j++ {
				v, _ := d.Uint32() // 24 bytes were just encoded; decode cannot run short
				sink += uint64(v)
			}
			size, _ := d.Uint64()
			length, _ := d.Uint32()
			sink += size + uint64(length)
		}
	})

	// ncache: capture a 16 KB iSCSI read into the LBN cache, then serve the
	// same blocks as a second-level hit.
	eng := sim.NewEngine()
	node := simnet.NewNode(eng, "k", simnet.DefaultProfile())
	mod := ncache.New(node, ncache.Config{CapacityBytes: 64 << 20, BlockSize: blockSize})
	out["ncache.k_serve_read_ns"] = fastest(round, func(n int) {
		for i := 0; i < n; i++ {
			lba := int64(i%256) * 4
			data, err := node.BlkPool.GetZeroChain(4 * blockSize)
			if err != nil {
				return
			}
			mod.CaptureLBN(lba, 4, data).Release()
			if c, ok := mod.ServeRead(lba, 4); ok {
				c.Release()
			}
			if i%256 == 255 {
				_ = eng.Run() // drain the CPU charges; no event limit is set
			}
		}
		_ = eng.Run()
	})

	// wal: append one 8 KB record and run the engine to its group commit's
	// callback; retire it so the log stays short.
	weng := sim.NewEngine()
	log := wal.New(weng, wal.Config{}, nil)
	payload := make([]byte, 8<<10)
	out["wal.k_append_commit_ns"] = fastest(round, func(n int) {
		for i := 0; i < n; i++ {
			log.Append(&wal.Record{Ino: 2, Off: uint64(i) * 8192, LBNs: []int64{int64(i), int64(i) + 1}, Data: payload},
				func() { sink++ })
			_ = weng.Run() // no event limit is set
			log.Truncate(func(int64) bool { return false })
		}
	})

	// controlplane: consistent-hash lookup on a four-server ring.
	ring := controlplane.NewRing(0)
	for m := 0; m < 4; m++ {
		ring.Add(m)
	}
	out["controlplane.k_ring_lookup_ns"] = fastest(round, func(n int) {
		for i := 0; i < n; i++ {
			sink += uint64(ring.Lookup(uint64(i) * 0x9e3779b97f4a7c15))
		}
	})
	return out
}
