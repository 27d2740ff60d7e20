package workload

import (
	"ncache/internal/passthru"
	"ncache/internal/sim"
)

// WebPageClasses is the SPECweb99-like page-size mix (§5.3: mean accessed
// page ≈ 75 KB). Weights are access-frequency weights.
var WebPageClasses = []struct {
	Size   int
	Weight int
}{
	{4 * 1024, 25},
	{16 * 1024, 30},
	{64 * 1024, 28},
	{256 * 1024, 16},
	{1024 * 1024, 1},
}

// PageSet describes a generated working set: file names (in the fs root)
// and their sizes, access-ranked (index 0 most popular under Zipf).
type PageSet struct {
	Names []string
	Sizes []int
}

// BuildPageSet sizes a page population to approximately totalBytes,
// interleaving the classes so popularity ranks span all sizes (as
// SPECweb99's class rotation does).
func BuildPageSet(totalBytes int64) PageSet {
	var out PageSet
	var acc int64
	i := 0
	for acc < totalBytes {
		class := WebPageClasses[i%len(WebPageClasses)]
		name := "page-" + itoa(i)
		out.Names = append(out.Names, name)
		out.Sizes = append(out.Sizes, class.Size)
		acc += int64(class.Size)
		i++
	}
	return out
}

// itoa is a tiny allocation-free int formatter for page names.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// WebLoad drives Zipf-distributed GETs over persistent connections, one
// outstanding request per connection (SPECweb99's simultaneous-connection
// model). A one-page set is the fixed-page all-hit micro-benchmark of
// Figure 6(b), where the page size is the sweep variable.
type WebLoad struct {
	Conns []*passthru.HTTPConn
	Pages PageSet
	// ZipfS is the popularity exponent (≈1 per [7]).
	ZipfS float64
	Seed  uint64

	loop
}

var _ Load = (*WebLoad)(nil)

// Start implements Load.
func (l *WebLoad) Start() {
	if l.ZipfS == 0 {
		l.ZipfS = 1.0
	}
	zipf := NewZipf(len(l.Pages.Names), l.ZipfS)
	l.start(len(l.Conns), 1, &stream{rng: sim.NewRNG(l.Seed + 11)}, nil,
		func(w *worker) {
			l.Conns[w.lane].Get(l.Pages.Names[zipf.Draw(w.st.rng)], w.done)
		})
}
