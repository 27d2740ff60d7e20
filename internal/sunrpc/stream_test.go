package sunrpc

import (
	"bytes"
	"testing"

	"ncache/internal/netbuf"
)

func TestRecordStreamFraming(t *testing.T) {
	// Three records of varying size, delivered in awkward chunks.
	var wire []byte
	var want [][]byte
	for i, n := range []int{1, 100, 4096} {
		payload := bytes.Repeat([]byte{byte('A' + i)}, n)
		want = append(want, payload)
		mark := make([]byte, 4)
		mark[0] = 0x80 | byte(n>>24)
		mark[1] = byte(n >> 16)
		mark[2] = byte(n >> 8)
		mark[3] = byte(n)
		wire = append(wire, mark...)
		wire = append(wire, payload...)
	}
	pool := netbuf.NewPool("stream", netbuf.DefaultHeadroom, 48, 0)
	for _, chunk := range []int{1, 3, 7, 64, 5000} {
		var got [][]byte
		rs := newRecordStream(pool, func(rec *netbuf.Chain) {
			got = append(got, rec.Flatten())
			rec.Release()
		})
		for off := 0; off < len(wire); off += chunk {
			end := off + chunk
			if end > len(wire) {
				end = len(wire)
			}
			rs.push(pool.GetChain(wire[off:end]))
		}
		if len(got) != 3 {
			t.Fatalf("chunk %d: records = %d, want 3", chunk, len(got))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("chunk %d: record %d mismatch", chunk, i)
			}
		}
		if rs.Errors != 0 {
			t.Fatalf("chunk %d: errors = %d", chunk, rs.Errors)
		}
	}
}

func TestRecordStreamRejectsNonFinalFragment(t *testing.T) {
	pool := netbuf.NewPool("stream", netbuf.DefaultHeadroom, 8, 0)
	rs := newRecordStream(pool, func(rec *netbuf.Chain) { rec.Release() })
	// Mark without the last-fragment bit.
	rs.push(pool.GetChain([]byte{0x00, 0, 0, 4, 1, 2, 3, 4}))
	if rs.Errors != 1 {
		t.Fatalf("errors = %d, want 1", rs.Errors)
	}
}
