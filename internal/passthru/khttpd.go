package passthru

import (
	"bytes"
	"fmt"
	"strconv"

	"ncache/internal/extfs"
	"ncache/internal/netbuf"
	"ncache/internal/proto/tcp"
)

// HTTPPort is the web service port.
const HTTPPort = 80

// webChunk is the sendfile granularity: how much file data each
// fs-read/transmit cycle moves.
const webChunk = 64 * 1024

// WebServer is the kHTTPd analogue: an in-kernel static web server that
// serves files straight from the buffer cache with the sendfile path (one
// copy in the Original configuration; key moves under NCache/Baseline).
// Only static GETs are supported, as in the paper (§4.3).
type WebServer struct {
	srv *AppServer

	// Requests counts completed requests.
	Requests uint64
	// Errors counts requests that failed (404s, parse errors).
	Errors uint64

	// fhCache memoizes name → (ino, size), as kHTTPd's dentry lookups
	// would hit the dcache.
	fhCache map[string]webFile
}

type webFile struct {
	ino  uint32
	size uint64
}

// NewWebServer starts the web service on the app server.
func NewWebServer(s *AppServer) (*WebServer, error) {
	w := &WebServer{srv: s, fhCache: make(map[string]webFile)}
	if err := s.TCP.Listen(HTTPPort, w.accept); err != nil {
		return nil, err
	}
	return w, nil
}

// accept wires a persistent connection.
func (w *WebServer) accept(c *tcp.Conn) {
	conn := &webConn{server: w, conn: c}
	c.SetReceiver(conn.receive)
}

// webConn handles one client connection: requests are processed
// sequentially; responses stream as header + sendfile chunks.
type webConn struct {
	server *WebServer
	conn   *tcp.Conn
	reqBuf bytes.Buffer
	busy   bool
}

// receive accumulates request bytes and kicks processing.
func (wc *webConn) receive(data *netbuf.Chain) {
	_ = data.Range(0, data.Len(), func(p []byte) { wc.reqBuf.Write(p) })
	data.Release()
	wc.pump()
}

// pump serves the next complete request if idle.
func (wc *webConn) pump() {
	if wc.busy {
		return
	}
	raw := wc.reqBuf.Bytes()
	end := bytes.Index(raw, []byte("\r\n\r\n"))
	if end < 0 {
		return
	}
	req := string(raw[:end])
	wc.reqBuf.Next(end + 4)
	wc.busy = true
	wc.serve(req)
}

// serve processes one request line.
func (wc *webConn) serve(req string) {
	w := wc.server
	srv := w.srv
	node := srv.Node
	node.Reqs.Ops++
	node.Charge(node.Cost.HTTPOpNs, func() {
		var method, path string
		if n, err := fmt.Sscanf(req, "%s %s", &method, &path); n != 2 || err != nil || method != "GET" {
			w.Errors++
			wc.sendError(400, "Bad Request")
			return
		}
		name := path
		if len(name) > 0 && name[0] == '/' {
			name = name[1:]
		}
		if f, ok := w.fhCache[name]; ok {
			wc.sendFile(f)
			return
		}
		srv.FS.Lookup(extfs.RootIno, []byte(name), func(ino uint32, err error) {
			if err != nil {
				w.Errors++
				wc.sendError(404, "Not Found")
				return
			}
			srv.FS.Getattr(ino, func(a extfs.Attr, err error) {
				if err != nil || a.Mode != extfs.ModeFile {
					w.Errors++
					wc.sendError(404, "Not Found")
					return
				}
				f := webFile{ino: ino, size: a.Size}
				w.fhCache[name] = f
				wc.sendFile(f)
			})
		})
	})
}

// sendError emits a minimal error response and resumes.
func (wc *webConn) sendError(code int, text string) {
	body := text + "\n"
	head := "HTTP/1.0 " + strconv.Itoa(code) + " " + text +
		"\r\nContent-Length: " + strconv.Itoa(len(body)) + "\r\n\r\n" + body
	_ = wc.conn.Send([]byte(head))
	wc.busy = false
	wc.pump()
}

// sendFile streams the response header and then the file body in sendfile
// chunks, applying the NCache substitution hook to each outgoing chain.
func (wc *webConn) sendFile(f webFile) {
	w := wc.server
	srv := w.srv
	head := "HTTP/1.0 200 OK\r\nContent-Length: " +
		strconv.FormatUint(f.size, 10) + "\r\nConnection: keep-alive\r\n\r\n"
	// Headers are metadata: they go through the normal copy path and are
	// never substituted (§4.3: "packets carrying HTTP reply headers go
	// through without any action").
	if err := wc.conn.Send([]byte(head)); err != nil {
		wc.busy = false
		return
	}
	var stream func(off uint64)
	stream = func(off uint64) {
		if off >= f.size {
			w.Requests++
			srv.Node.Reqs.ReadOps++
			wc.busy = false
			wc.pump()
			return
		}
		n := webChunk
		if remaining := f.size - off; uint64(n) > remaining {
			n = int(remaining)
		}
		srv.FS.Read(f.ino, off, n, func(res *extfs.ReadResult, err error) {
			if err != nil {
				w.Errors++
				wc.busy = false
				return
			}
			chain := srv.replyChain(res, true)
			res.Done(srv.FS)
			if srv.Mode == NCache {
				chain = srv.Module.SubstituteMessage(chain)
			}
			got := chain.Len()
			if err := wc.conn.SendChain(chain); err != nil {
				wc.busy = false
				return
			}
			stream(off + uint64(got))
		})
	}
	stream(0)
}
