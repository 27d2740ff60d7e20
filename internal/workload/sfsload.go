package workload

import (
	"strconv"

	"ncache/internal/nfs"
	"ncache/internal/sim"
)

// FileRef names one file of the SFS file set.
type FileRef struct {
	FH   nfs.FH
	Size uint64
}

// SFSConfig parameterizes the SPECsfs-like macro load (§5.3): a 5:1
// read:write mix over regular data, a size distribution dominated by small
// (<16 KB) requests, and a tunable fraction of operations that touch
// regular data at all (Figure 7 sweeps 30%–75%).
type SFSConfig struct {
	// RegularDataPct is the percentage of operations that are data
	// reads/writes; the rest are metadata operations.
	RegularDataPct int
	// Files is the accessed file set (10% of the file system in §5.3).
	Files []FileRef
	// ScratchDir receives create/remove churn.
	ScratchDir  nfs.FH
	Concurrency int
	// WriteMixPct is the percentage of regular-data operations that are
	// writes (0 = the SPECsfs default 5:1 read:write mix). The write-back
	// experiments sweep write-heavy mixes through here.
	WriteMixPct int
}

// sfsSeed seeds the one operation stream every SFS run draws from.
const sfsSeed = 7

// sfsSizes is the request-size distribution: small requests dominate, as in
// the SPECsfs default the paper uses.
var sfsSizes = []struct {
	size   int
	weight int
}{
	{4096, 60},
	{8192, 25},
	{16384, 10},
	{32768, 5},
}

// SFSLoad is the closed-loop macro workload.
type SFSLoad struct {
	Clients []*nfs.Client
	Cfg     SFSConfig

	loop
}

var _ Load = (*SFSLoad)(nil)

// Start implements Load.
func (l *SFSLoad) Start() {
	l.start(len(l.Clients), l.Cfg.Concurrency,
		&stream{rng: sim.NewRNG(sfsSeed)}, nil, l.next)
}

// pickSize draws a request size from the SFS distribution.
func pickSize(rng *sim.RNG) int {
	total := 0
	for _, s := range sfsSizes {
		total += s.weight
	}
	v := rng.Intn(total)
	for _, s := range sfsSizes {
		if v < s.weight {
			return s.size
		}
		v -= s.weight
	}
	return sfsSizes[0].size
}

// next performs one operation from the mix.
func (l *SFSLoad) next(w *worker) {
	c, rng := l.Clients[w.lane], w.st.rng
	pickFile := func() FileRef { return l.Cfg.Files[rng.Intn(len(l.Cfg.Files))] }
	if rng.Intn(100) < l.Cfg.RegularDataPct {
		// Regular data: 5:1 read:write.
		f := pickFile()
		size := pickSize(rng)
		blocks := f.Size / uint64(size)
		if blocks == 0 {
			blocks = 1
		}
		off := uint64(rng.Int63n(int64(blocks))) * uint64(size)
		isRead := rng.Intn(6) < 5
		if l.Cfg.WriteMixPct > 0 {
			// One extra draw, only on the non-default mix — the default
			// stream stays bit-identical to the seed replays.
			isRead = rng.Intn(100) >= l.Cfg.WriteMixPct
		}
		if isRead {
			c.Read(f.FH, off, size, w.onRead)
			return
		}
		c.Write(f.FH, off, junkChain(c, size), w.onWrite)
		return
	}
	// Metadata: getattr / lookup / readdir / create+remove.
	switch v := rng.Intn(100); {
	case v < 45:
		c.Getattr(pickFile().FH, w.onAttr)
	case v < 80:
		c.Lookup(l.Cfg.ScratchDir, "nonexistent-probe", w.onProbe)
	case v < 90:
		c.Readdir(l.Cfg.ScratchDir, w.onNames)
	default:
		w.st.seq++
		w.c, w.fh, w.name = c, l.Cfg.ScratchDir, "sfs-tmp-"+strconv.FormatUint(w.st.seq, 36)
		c.Create(w.fh, w.name, w.onCreated)
	}
}

// probeDone completes the LOOKUP of a name that does not exist.
func (w *worker) probeDone(_ nfs.FH, _ nfs.Attr, err error) {
	// ENOENT is the expected, successful outcome of the probe.
	if _, isOp := err.(*nfs.OpError); isOp {
		err = nil
	}
	w.complete(0, err)
}

// created removes the scratch file a CREATE just made.
func (w *worker) created(_ nfs.FH, _ nfs.Attr, err error) {
	if err != nil {
		w.complete(0, err)
		return
	}
	w.st.ops++ // the create itself
	w.c.Remove(w.fh, w.name, w.onStatus)
}
