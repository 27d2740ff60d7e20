package eth

import (
	"bytes"
	"errors"
	"testing"

	"ncache/internal/netbuf"
)

// frameWith returns a single-buffer chain holding payload with header room.
func frameWith(t *testing.T, payload []byte) *netbuf.Chain {
	t.Helper()
	return netbuf.NewPool("frame", netbuf.DefaultHeadroom, netbuf.DefaultBufSize, 0).GetChain(payload)
}

func TestHeaderRoundTrip(t *testing.T) {
	payload := []byte("regular data block")
	frame := frameWith(t, payload)
	defer frame.Release()

	h := Header{Dst: 0x0a000002, Src: 0x0a000001, Type: TypeIPv4, Pad: 7}
	if err := h.Push(frame); err != nil {
		t.Fatal(err)
	}
	if frame.Len() != HeaderLen+len(payload) {
		t.Fatalf("framed length = %d, want %d", frame.Len(), HeaderLen+len(payload))
	}

	got, err := Parse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("parsed %+v, want %+v", got, h)
	}
	if !bytes.Equal(frame.Flatten(), payload) {
		t.Fatalf("payload corrupted: %q", frame.Flatten())
	}
}

func TestPeekDoesNotConsume(t *testing.T) {
	frame := frameWith(t, []byte{1, 2, 3, 4})
	defer frame.Release()
	h := Header{Dst: Broadcast, Src: 42, Type: TypeIPv4}
	if err := h.Push(frame); err != nil {
		t.Fatal(err)
	}
	peeked, err := Peek(frame)
	if err != nil {
		t.Fatal(err)
	}
	if peeked != h {
		t.Fatalf("peeked %+v, want %+v", peeked, h)
	}
	if frame.Len() != HeaderLen+4 {
		t.Fatalf("peek consumed bytes: len = %d", frame.Len())
	}
	// A subsequent Parse still sees the header.
	parsed, err := Parse(frame)
	if err != nil || parsed != h {
		t.Fatalf("parse after peek: %+v, %v", parsed, err)
	}
	if frame.Len() != 4 {
		t.Fatalf("parse did not strip header: len = %d", frame.Len())
	}
}

func TestShortFrameErrors(t *testing.T) {
	short := frameWith(t, []byte{1, 2, 3}) // < HeaderLen
	defer short.Release()
	if _, err := Parse(short); !errors.Is(err, ErrShortHeader) {
		t.Fatalf("Parse(short) = %v, want ErrShortHeader", err)
	}
	if _, err := Peek(short); !errors.Is(err, ErrShortHeader) {
		t.Fatalf("Peek(short) = %v, want ErrShortHeader", err)
	}

	empty := netbuf.NewPool("empty", 0, 0, 0).NewChain(0)
	defer empty.Release()
	if _, err := Parse(empty); !errors.Is(err, ErrShortHeader) {
		t.Fatalf("Parse(empty) = %v, want ErrShortHeader", err)
	}
	if err := (Header{}).Push(empty); err == nil {
		t.Fatal("Push on an empty chain must fail")
	}
}

func TestPushWithoutHeadroomFails(t *testing.T) {
	frame := netbuf.NewPool("bare", 0, 8, 0).GetChain(make([]byte, 8))
	defer frame.Release()
	if err := (Header{}).Push(frame); err == nil {
		t.Fatal("Push without headroom must fail")
	}
}
