package bench

import (
	"fmt"
	"strings"

	"ncache/internal/extfs"
	"ncache/internal/netbuf"
	"ncache/internal/nfs"
	"ncache/internal/passthru"
)

// Table1Row is one line of the kernel-modification inventory.
type Table1Row struct {
	Module   string
	Paper    string
	ThisRepo string
}

// Table1 reproduces Table 1: the modification surface of the NCache
// integration. The paper counts lines of C changed in Linux; here the
// analogous quantity is the set of hook points the assembly installs — the
// server daemons and the buffer cache remain untouched in both, and so does
// the initiator: its two changed functions are one decorator above it.
func Table1() []Table1Row {
	return []Table1Row{
		{
			Module:   "NFS/Web server daemon",
			Paper:    "None",
			ThisRepo: "None (nfs.Server / passthru.WebServer are mode-oblivious)",
		},
		{
			Module:   "buffer cache",
			Paper:    "None",
			ThisRepo: "None (buffercache moves lkey markers mechanically)",
		},
		{
			Module:   "iSCSI initiator",
			Paper:    "two functions invoking socket interface changed",
			ThisRepo: "two functions above it: passthru.interceptVolume.ReadAt + WriteAt (incl. the §3.4 L2 read cache)",
		},
		{
			Module:   "network stack",
			Paper:    "TCP/IP socket interfaces extended",
			ThisRepo: "zero-copy SendChain on udp.Transport / tcp.Conn + nfs.Server.SetTxFilter",
		},
	}
}

// Table2Row is one measured line of the copies-per-request table.
type Table2Row struct {
	Server string
	Path   string
	Copies uint64
	Want   uint64 // the paper's count
}

// table2 measures the number of physical copy operations per request on the
// Original configuration's four NFS paths and two kHTTPd paths, reproducing
// Table 2. Metadata is warmed first so the deltas are pure data path.
func table2(h *harness) ([]Table2Row, error) {
	cl, err := h.build(table2Config, func(f *extfs.Formatter) error {
		_, err := f.AddFile("t2file", 64*extfs.BlockSize, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	fh, err := lookupFH(cl, 0, "t2file")
	if err != nil {
		return nil, err
	}
	node := cl.App.Node
	client := cl.Clients[0].NFS

	read := func(off uint64) error {
		return await(cl.Eng, func(p *pending) {
			done := p.expect("read")
			client.Read(fh, off, extfs.BlockSize, func(c *netbuf.Chain, _ nfs.Attr, err error) {
				c.Release()
				done(err)
			})
		})
	}
	write := func(off uint64) error {
		return await(cl.Eng, func(p *pending) {
			done := p.expect("write")
			client.WriteBytes(fh, off, make([]byte, extfs.BlockSize), func(_ int, _ nfs.Attr, err error) { done(err) })
		})
	}

	// Warm metadata (root inode, file inode) with a probe read of block 0.
	if err := read(0); err != nil {
		return nil, err
	}

	var rows []Table2Row
	delta := func(name string, want uint64, op func() error) error {
		before := node.Copies
		if err := op(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		d := node.Copies.Sub(before)
		rows = append(rows, Table2Row{Server: "NFS server", Path: name, Copies: d.PhysicalOps, Want: want})
		return nil
	}

	// Read miss / hit (direct blocks only, so no metadata I/O pollutes).
	if err := delta("read miss", 3, func() error { return read(8 * extfs.BlockSize) }); err != nil {
		return nil, err
	}
	if err := delta("read hit", 2, func() error { return read(8 * extfs.BlockSize) }); err != nil {
		return nil, err
	}
	// Write overwritten (dirty block rewritten, never flushed): both
	// writes cost 1 copy each; report the second (the overwrite).
	if err := write(5 * extfs.BlockSize); err != nil {
		return nil, err
	}
	if err := delta("write overwritten", 1, func() error { return write(5 * extfs.BlockSize) }); err != nil {
		return nil, err
	}
	// Write flushed: one write then a sync; total copies across both
	// stages is 2 (Table 2 counts the cumulative journey).
	before := node.Copies
	if err := write(6 * extfs.BlockSize); err != nil {
		return nil, err
	}
	if err := await(cl.Eng, func(p *pending) {
		cl.App.FS.Sync(p.expect("sync"))
	}); err != nil {
		return nil, err
	}
	d := node.Copies.Sub(before)
	// The sync also flushes block 5 (the overwritten one); subtract its
	// single flush copy to isolate one write+flush journey.
	rows = append(rows, Table2Row{Server: "NFS server", Path: "write flushed", Copies: d.PhysicalOps - 1, Want: 2})

	// kHTTPd: one-copy sendfile path. Use a fresh single-block page.
	webRows, err := table2Web(h)
	if err != nil {
		return nil, err
	}
	rows = append(rows, webRows...)
	return rows, nil
}

// table2Config is the one-client Original testbed both halves of Table 2
// measure.
var table2Config = passthru.ClusterConfig{
	Mode:          passthru.Original,
	NumClients:    1,
	BlocksPerDisk: 16 * 1024,
	EnableWeb:     true,
}

// table2Web measures the kHTTPd read paths on a fresh cluster.
func table2Web(h *harness) ([]Table2Row, error) {
	// Two one-block pages: one to warm metadata, one to measure.
	cl, err := h.build(table2Config, func(f *extfs.Formatter) error {
		if _, err := f.AddFile("warm.html", extfs.BlockSize, nil); err != nil {
			return err
		}
		_, err := f.AddFile("page.html", extfs.BlockSize, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	var conn *passthru.HTTPConn
	if err := await(cl.Eng, func(p *pending) {
		done := p.expect("web dial")
		cl.Clients[0].DialHTTP(passthru.ServerAddr, func(h *passthru.HTTPConn, err error) {
			conn = h
			done(err)
		})
	}); err != nil {
		return nil, err
	}
	get := func(page string) error {
		return await(cl.Eng, func(p *pending) {
			done := p.expect("GET " + page)
			conn.Get(page, func(_ int, err error) { done(err) })
		})
	}
	if err := get("warm.html"); err != nil { // warms root dir + metadata
		return nil, err
	}
	node := cl.App.Node
	var rows []Table2Row
	before := node.Copies
	if err := get("page.html"); err != nil {
		return nil, err
	}
	d := node.Copies.Sub(before)
	rows = append(rows, Table2Row{Server: "kHTTPd", Path: "read miss", Copies: d.PhysicalOps, Want: 2})
	before = node.Copies
	if err := get("page.html"); err != nil {
		return nil, err
	}
	d = node.Copies.Sub(before)
	rows = append(rows, Table2Row{Server: "kHTTPd", Path: "read hit", Copies: d.PhysicalOps, Want: 1})
	return rows, nil
}

// FormatTable1 renders Table 1.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: modifications required for NCache integration\n")
	fmt.Fprintf(&b, "%-24s | %-45s | %s\n", "Module", "Paper (Linux)", "This reproduction")
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 120))
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s | %-45s | %s\n", r.Module, r.Paper, r.ThisRepo)
	}
	return b.String()
}

// FormatTable2 renders Table 2 with pass/fail against the paper's counts.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: physical data copies per request (Original configuration)\n")
	fmt.Fprintf(&b, "%-12s %-18s %8s %8s %s\n", "Server", "Path", "Measured", "Paper", "Match")
	for _, r := range rows {
		match := "ok"
		if r.Copies != r.Want {
			match = "MISMATCH"
		}
		fmt.Fprintf(&b, "%-12s %-18s %8d %8d %s\n", r.Server, r.Path, r.Copies, r.Want, match)
	}
	return b.String()
}
