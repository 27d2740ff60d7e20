package bench

import (
	"fmt"

	"ncache/internal/extfs"
	"ncache/internal/nfs"
	"ncache/internal/passthru"
	"ncache/internal/workload"
)

// Fig7RegularDataPcts is the x-axis of Figure 7: the percentage of NFS
// operations that access regular data.
var Fig7RegularDataPcts = []int{30, 45, 60, 75}

// sfsFileCount and sfsFileSize build the accessed file set: 10% of the
// paper's 2 GB file system ≈ 200 MB, spread over many files (scaled by
// Options.Scale).
const (
	sfsFileCount = 256
	sfsFileSize  = 800 * 1024 // 256 × 800 KB ≈ 200 MB at Scale=1
)

// fig7 reproduces Figure 7: SPECsfs-like throughput (ops/s) for the three
// configurations as the regular-data fraction of the op mix grows.
func fig7(h *harness) ([]SFSPoint, error) {
	return sweep("fig7", Fig7RegularDataPcts, func(mode passthru.Mode, pct int) (SFSPoint, error) {
		cfg := passthru.ClusterConfig{Mode: mode}
		if mode != passthru.NCache {
			// The SFS steady state is cache-resident (the accessed set is
			// 10% of the file system precisely so the server works from
			// memory). NCache keeps sfsRig's small FS cache instead:
			// double-buffering control, NCache as L2.
			cfg.FSCacheBlocks = int(sfsTotalBlocks(h.opt)) + 8192
		}
		cl, load, err := h.sfsRig(cfg, "sfs", workload.SFSConfig{RegularDataPct: pct})
		if err != nil {
			return SFSPoint{}, err
		}
		w, err := h.measure(cl, load, nil, 1, nil, nil)
		return SFSPoint{window: w, Mode: mode, RegularDataPct: pct}, err
	})
}

// sfsFileBytes is the scaled size of one file of the SFS set.
func sfsFileBytes(opt Options) uint64 {
	size := uint64(sfsFileSize / opt.Scale)
	size -= size % extfs.BlockSize
	if size == 0 {
		size = extfs.BlockSize
	}
	return size
}

// sfsTotalBlocks is the SFS file set's footprint in blocks.
func sfsTotalBlocks(opt Options) int64 {
	return sfsFileCount * int64(sfsFileBytes(opt)/extfs.BlockSize)
}

// sfsRig builds the SFS testbed: the file set laid down as <prefix>-NNNN,
// every handle resolved through the protocol (warming directory metadata)
// and every file prefilled so the window starts from steady state, driven at
// the sustained peak the paper reports — enough streams to push the server
// to its CPU limit. Unset cache sizes get the NCache arrangement: a 16 MB FS
// cache in front of an NCache that holds the whole set.
func (h *harness) sfsRig(cfg passthru.ClusterConfig, prefix string, mix workload.SFSConfig) (*passthru.Cluster, *workload.SFSLoad, error) {
	fileSize, totalBlocks := sfsFileBytes(h.opt), sfsTotalBlocks(h.opt)
	cfg.BlocksPerDisk = totalBlocks/4 + 16384
	if cfg.FSCacheBlocks == 0 {
		cfg.FSCacheBlocks = 4096
	}
	cfg.NCacheBytes = (totalBlocks*extfs.BlockSize*3)/2 + (64 << 20)
	var specs []extfs.FileSpec
	cl, err := h.build(cfg, func(f *extfs.Formatter) error {
		for i := 0; i < sfsFileCount; i++ {
			spec, err := f.AddFile(fmt.Sprintf("%s-%04d", prefix, i), fileSize, nil)
			if err != nil {
				return err
			}
			specs = append(specs, spec)
		}
		_, err := f.AddFile("scratch-marker", extfs.BlockSize, nil)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	for _, spec := range specs {
		fh, err := lookupFH(cl, 0, spec.Name)
		if err != nil {
			return nil, nil, err
		}
		if err := prefill(cl, fh, spec.Size); err != nil {
			return nil, nil, err
		}
		mix.Files = append(mix.Files, workload.FileRef{FH: fh, Size: spec.Size})
	}
	mix.ScratchDir = nfs.RootFH()
	mix.Concurrency = h.opt.Concurrency * 4
	return cl, &workload.SFSLoad{Clients: nfsClients(cl), Cfg: mix}, nil
}
