package bench

import (
	"ncache/internal/extfs"
	"ncache/internal/passthru"
	"ncache/internal/workload"
)

// Fig6aWorkingSetsMB is the working-set sweep of Figure 6(a), scaled from
// the paper's 250 MB–1 GB by Options.Scale (default 4 → 62–250 MB against a
// proportionally scaled server memory budget).
var Fig6aWorkingSetsMB = []int{250, 500, 750, 1000}

// Fig6bRequestKB is the request-size sweep of Figure 6(b).
var Fig6bRequestKB = []int{16, 32, 64, 128}

// serverMemoryMB is the effective page-cache budget of the paper's 896 MB
// application server (the kernel, daemons and anonymous memory claim the
// rest), split between the FS buffer cache and NCache.
const serverMemoryMB = 448

// fig6a reproduces Figure 6(a): kHTTPd under the SPECweb99-like Zipf load,
// sweeping the working-set size. NCache's metadata footprint shrinks its
// effective cache, so its curve falls off earlier at large sets.
func fig6a(h *harness) ([]WebPoint, error) {
	return sweep("fig6a", Fig6aWorkingSetsMB, func(mode passthru.Mode, wsMB int) (WebPoint, error) {
		scale := int64(h.opt.Scale)
		memBytes := int64(serverMemoryMB) << 20 / scale
		cfg := passthru.ClusterConfig{Mode: mode, FSCacheBlocks: int(memBytes / extfs.BlockSize)}
		if mode == passthru.NCache {
			// Small FS cache; NCache takes the rest of the memory budget.
			fsBytes := memBytes / 16
			cfg.FSCacheBlocks = int(fsBytes / extfs.BlockSize)
			cfg.NCacheBytes = memBytes - fsBytes
		}
		cl, load, err := h.webRig(cfg, int64(wsMB)<<20/scale)
		if err != nil {
			return WebPoint{}, err
		}
		return h.webPoint(cl, load, wsMB)
	})
}

// webRig builds the SPECweb99-like testbed: a page set of wsBytes served by
// kHTTPd over two NICs (CPU-limited, as the paper's throughput gaps imply),
// persistent connections dialed, and every page fetched once.
func (h *harness) webRig(cfg passthru.ClusterConfig, wsBytes int64) (*passthru.Cluster, *workload.WebLoad, error) {
	cfg.ServerNICs = 2
	cfg.EnableWeb = true
	cfg.BlocksPerDisk = wsBytes/4096/4 + 16384
	pages := workload.BuildPageSet(wsBytes)
	cl, err := h.build(cfg, func(f *extfs.Formatter) error {
		for i, name := range pages.Names {
			if _, err := f.AddFile(name, uint64(pages.Sizes[i]), nil); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	conns, err := dialWebConns(cl, h.opt.Concurrency)
	if err != nil {
		return nil, nil, err
	}
	if err := prefillWeb(cl, conns[0], pages); err != nil {
		return nil, nil, err
	}
	// SPECweb99 popularity is Zipf-like but flatter than s=1 across its
	// class/rotation structure; 0.75 yields the paper's declining hit
	// ratios at large working sets.
	return cl, &workload.WebLoad{Conns: conns, Pages: pages, ZipfS: 0.75}, nil
}

// prefillWeb fetches every page once, least-popular first, so the server's
// LRU caches converge to the Zipf steady state (most-popular resident)
// before the measured window starts.
func prefillWeb(cl *passthru.Cluster, conn *passthru.HTTPConn, pages workload.PageSet) error {
	return await(cl.Eng, func(p *pending) {
		done := p.expect("web prefill")
		var next func(i int, err error)
		next = func(i int, err error) {
			if i < 0 || err != nil {
				done(err)
				return
			}
			conn.Get(pages.Names[i], func(_ int, err error) { next(i-1, err) })
		}
		next(len(pages.Names)-1, nil)
	})
}

// fig6b reproduces Figure 6(b): the all-hit web micro-benchmark, sweeping
// the requested page size 16–128 KB.
func fig6b(h *harness) ([]WebPoint, error) {
	return sweep("fig6b", Fig6bRequestKB, func(mode passthru.Mode, reqKB int) (WebPoint, error) {
		cl, err := h.build(passthru.ClusterConfig{
			Mode:          mode,
			ServerNICs:    2, // expose the CPU limit, as in Fig 5(b)
			BlocksPerDisk: 16 * 1024,
			FSCacheBlocks: 8192,
			NCacheBytes:   64 << 20,
			EnableWeb:     true,
		}, func(f *extfs.Formatter) error {
			_, err := f.AddFile("hotpage", uint64(reqKB)*1024, nil)
			return err
		})
		if err != nil {
			return WebPoint{}, err
		}
		conns, err := dialWebConns(cl, h.opt.Concurrency)
		if err != nil {
			return WebPoint{}, err
		}
		load := &workload.WebLoad{Conns: conns, Pages: workload.PageSet{Names: []string{"hotpage"}}}
		return h.webPoint(cl, load, reqKB)
	})
}

// dialWebConns opens n persistent connections per client host, spread
// across server NICs, returned in the order they were established.
func dialWebConns(cl *passthru.Cluster, perHost int) ([]*passthru.HTTPConn, error) {
	var conns []*passthru.HTTPConn
	err := await(cl.Eng, func(p *pending) {
		for ci, host := range cl.Clients {
			for k := 0; k < perHost; k++ {
				done := p.expect("web dial")
				nic := cl.App.Node.NICs()[ci%len(cl.App.Node.NICs())]
				host.DialHTTP(nic.Addr, func(h *passthru.HTTPConn, err error) {
					if err == nil {
						conns = append(conns, h)
					}
					done(err)
				})
			}
		}
	})
	return conns, err
}

// webPoint measures one web point.
func (h *harness) webPoint(cl *passthru.Cluster, load workload.Load, param int) (WebPoint, error) {
	w, err := h.measure(cl, load, nil, 1, nil, nil)
	return WebPoint{window: w, Mode: cl.App.Mode, ParamKB: param}, err
}
