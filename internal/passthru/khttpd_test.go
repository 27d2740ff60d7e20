package passthru

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"ncache/internal/extfs"
	"ncache/internal/nfs"
	"ncache/internal/proto/tcp"
)

func TestContentLengthParsing(t *testing.T) {
	cases := []struct {
		header string
		want   int
	}{
		{"HTTP/1.0 200 OK\r\nContent-Length: 12345\r\nX: y", 12345},
		{"HTTP/1.0 200 OK\r\nContent-Length: 0", 0},
		{"HTTP/1.0 200 OK\r\nX: y", 0},
		{"HTTP/1.0 200 OK\r\nContent-Length: abc", 0},
	}
	for _, c := range cases {
		if got := contentLength(c.header); got != c.want {
			t.Fatalf("contentLength(%q) = %d, want %d", c.header, got, c.want)
		}
	}
}

func TestWebServerBadMethod(t *testing.T) {
	cl, _ := testCluster(t, Original, true)
	var conn *HTTPConn
	cl.Clients[0].DialHTTP(ServerAddr, func(h *HTTPConn, err error) { conn = h })
	run(t, cl)
	if conn == nil {
		t.Fatal("no connection")
	}
	// Hand-roll a POST; the server must answer 400 and keep serving.
	if err := conn.conn.Send([]byte("POST /x HTTP/1.0\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	got := -1
	conn.done = func(n int, err error) { got = n }
	run(t, cl)
	if got < 0 {
		t.Fatal("no response to bad method")
	}
	if cl.App.Web.Errors != 1 {
		t.Fatalf("Errors = %d, want 1", cl.App.Web.Errors)
	}
	// The connection still works for a proper GET.
	ok := false
	conn.Get("data.bin", func(n int, err error) { ok = err == nil && n == 64*extfs.BlockSize })
	run(t, cl)
	if !ok {
		t.Fatal("connection unusable after 400")
	}
}

func TestWebServerSplitRequestAcrossSegments(t *testing.T) {
	cl, _ := testCluster(t, Original, true)
	var conn *HTTPConn
	cl.Clients[0].DialHTTP(ServerAddr, func(h *HTTPConn, err error) { conn = h })
	run(t, cl)
	// Send the request in two fragments with a virtual-time gap.
	if err := conn.conn.Send([]byte("GET /data.bin HT")); err != nil {
		t.Fatal(err)
	}
	run(t, cl)
	got := -1
	conn.done = func(n int, err error) { got = n }
	conn.inBody = false
	if err := conn.conn.Send([]byte("TP/1.0\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	run(t, cl)
	if got != 64*extfs.BlockSize {
		t.Fatalf("split request body = %d", got)
	}
}

func TestWebServerPipelinedRequests(t *testing.T) {
	// Two GETs written back-to-back into the stream; the server must
	// serve them in order on the same connection.
	cl, _ := testCluster(t, Original, true)
	var conn *HTTPConn
	cl.Clients[0].DialHTTP(ServerAddr, func(h *HTTPConn, err error) { conn = h })
	run(t, cl)

	var sizes []int
	first := true
	conn.done = func(n int, err error) {
		sizes = append(sizes, n)
		if first {
			first = false
			conn.done = func(n int, err error) { sizes = append(sizes, n) }
		}
	}
	req := "GET /data.bin HTTP/1.0\r\n\r\nGET /data.bin HTTP/1.0\r\n\r\n"
	if err := conn.conn.Send([]byte(req)); err != nil {
		t.Fatal(err)
	}
	run(t, cl)
	if len(sizes) != 2 || sizes[0] != 64*extfs.BlockSize || sizes[1] != 64*extfs.BlockSize {
		t.Fatalf("pipelined responses = %v", sizes)
	}
	if cl.App.Web.Requests != 2 {
		t.Fatalf("server requests = %d", cl.App.Web.Requests)
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{
		Original: "original",
		Baseline: "baseline",
		NCache:   "ncache",
		Mode(99): "unknown",
	} {
		if m.String() != want {
			t.Fatalf("%d.String() = %q", m, m.String())
		}
	}
}

func TestNCacheUnalignedReadUsesSubOff(t *testing.T) {
	// A read that starts mid-block forces substitution at a sub-block
	// offset (lkey.SubOff); one shorter than a key must come back exactly
	// that short. The bytes must be exact either way.
	const bs = extfs.BlockSize
	written := make([]byte, bs)
	for i := range written {
		written[i] = byte(i * 7)
	}
	type read struct {
		off uint64
		n   int
	}
	for _, tc := range []struct {
		name  string
		write []byte // written to block 0 first when set; the reads then stay in block 0
		reads []read
	}{
		{"after a priming read", nil, []read{{0, 4 * bs}, {1000, 6000}}},
		{"shorter than a key after an aligned write", written, []read{{100, 10}}},
		{"shorter than a key, cold then warm", nil, []read{{5*bs + 7, 10}, {5*bs + 7, 10}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl, _ := testCluster(t, NCache, false)
			fh := lookupFile(t, cl, "data.bin")
			if tc.write != nil {
				writeFile(t, cl, fh, 0, tc.write)
			}
			for _, r := range tc.reads {
				want := expect(r.off, r.n)
				if tc.write != nil {
					want = tc.write[r.off : r.off+uint64(r.n)]
				}
				if got := readFile(t, cl, fh, r.off, r.n); !bytes.Equal(got, want) {
					t.Fatalf("read (%d, %d) returned %d bytes %x, want %x", r.off, r.n, len(got), got[:min(len(got), 48)], want[:min(len(want), 48)])
				}
			}
		})
	}
}

func TestWebFHCacheMemoizesLookups(t *testing.T) {
	cl, _ := testCluster(t, Original, true)
	var conn *HTTPConn
	cl.Clients[0].DialHTTP(ServerAddr, func(h *HTTPConn, err error) { conn = h })
	run(t, cl)
	for i := 0; i < 3; i++ {
		done := false
		conn.Get("data.bin", func(n int, err error) { done = err == nil })
		run(t, cl)
		if !done {
			t.Fatalf("GET %d failed", i)
		}
	}
	if len(cl.App.Web.fhCache) != 1 {
		t.Fatalf("fhCache entries = %d", len(cl.App.Web.fhCache))
	}
}

func TestHTTPConnRejectsConcurrentGet(t *testing.T) {
	cl, _ := testCluster(t, Original, true)
	var conn *HTTPConn
	cl.Clients[0].DialHTTP(ServerAddr, func(h *HTTPConn, err error) { conn = h })
	run(t, cl)
	conn.Get("data.bin", func(n int, err error) {})
	errSeen := false
	conn.Get("data.bin", func(n int, err error) {
		if err != nil && strings.Contains(err.Error(), "outstanding") {
			errSeen = true
		}
	})
	if !errSeen {
		t.Fatal("second in-flight GET was not rejected")
	}
	run(t, cl)
}

func TestReplyChainHoleExtents(t *testing.T) {
	// Holes (sparse file regions) read back as zeros through the mode
	// data path.
	cl, _ := testCluster(t, NCache, false)
	client := cl.Clients[0].NFS
	var fh nfs.FH
	client.Create(nfs.RootFH(), "sparse", func(h nfs.FH, _ nfs.Attr, err error) {
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		fh = h
	})
	run(t, cl)
	// Write one block at offset 8 blocks, leaving a hole before it.
	writeFile(t, cl, fh, 8*extfs.BlockSize, make([]byte, extfs.BlockSize))
	got := readFile(t, cl, fh, 0, 2*extfs.BlockSize)
	for i, b := range got {
		if b != 0 {
			t.Fatalf("hole byte %d = %#x, want 0", i, b)
		}
	}
}

// TestHTTPConnFailsGetOnDeadConnection: a GET outstanding when the server
// dies fails with the cause of the connection's abort once the client gives
// up retransmitting, and the next GET fails at once.
func TestHTTPConnFailsGetOnDeadConnection(t *testing.T) {
	cl, _ := testCluster(t, Original, true)
	var conn *HTTPConn
	cl.Clients[0].DialHTTP(ServerAddr, func(h *HTTPConn, err error) { conn = h })
	run(t, cl)
	cl.App.Crash()
	var got error
	answered := false
	conn.Get("data.bin", func(n int, err error) { got, answered = err, true })
	run(t, cl)
	if !answered || !errors.Is(got, tcp.ErrTimeout) {
		t.Fatalf("GET on a connection to a dead server: answered %v, err %v; want %v", answered, got, tcp.ErrTimeout)
	}
	conn.Get("data.bin", func(n int, err error) { got = err })
	if !errors.Is(got, tcp.ErrConnClosed) {
		t.Fatalf("GET on a closed connection: %v, want %v", got, tcp.ErrConnClosed)
	}
}
