package xdr

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestScalarRoundTrip(t *testing.T) {
	e := NewEncoder(64)
	e.Uint32(0xdeadbeef)
	e.Uint64(1 << 60)

	d := NewDecoder(e.Bytes())
	if v, err := d.Uint32(); err != nil || v != 0xdeadbeef {
		t.Fatalf("Uint32 = %v, %v", v, err)
	}
	if v, err := d.Uint64(); err != nil || v != 1<<60 {
		t.Fatalf("Uint64 = %v, %v", v, err)
	}
	if d.Offset() != len(e.Bytes()) {
		t.Fatalf("decoded %d of %d bytes", d.Offset(), len(e.Bytes()))
	}
}

// TestOpaquePadding: variable-length opaque data on the wire is a length
// word and the bytes padded to 4 (what the NFS READ reply carries).
func TestOpaquePadding(t *testing.T) {
	for n := 0; n <= 9; n++ {
		e := NewEncoder(32)
		payload := bytes.Repeat([]byte{0xab}, n)
		e.Uint32(uint32(n))
		e.FixedOpaque(payload)
		if len(e.Bytes())%4 != 0 {
			t.Fatalf("len(opaque %d) = %d, not 4-aligned", n, len(e.Bytes()))
		}
		d := NewDecoder(e.Bytes())
		got, err := d.Opaque(0)
		if err != nil {
			t.Fatalf("Opaque(%d): %v", n, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("Opaque(%d) round trip failed", n)
		}
		if d.Offset() != len(e.Bytes()) {
			t.Fatalf("opaque %d: decoded %d of %d bytes", n, d.Offset(), len(e.Bytes()))
		}
	}
}

func TestFixedOpaque(t *testing.T) {
	e := NewEncoder(16)
	e.FixedOpaque([]byte("abcde")) // 5 bytes → 3 pad
	if got := e.Bytes(); string(got) != "abcde\x00\x00\x00" {
		t.Fatalf("FixedOpaque encoded %q, want abcde and 3 zero bytes", got)
	}
}

func TestStringRoundTrip(t *testing.T) {
	e := NewEncoder(32)
	e.String("filename.txt")
	d := NewDecoder(e.Bytes())
	s, err := d.Opaque(255)
	if err != nil || string(s) != "filename.txt" {
		t.Fatalf("String = %q, %v", s, err)
	}
}

func TestDecodeErrors(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	if _, err := d.Uint32(); !errors.Is(err, ErrShort) {
		t.Fatalf("short Uint32 err = %v", err)
	}

	e := NewEncoder(16)
	e.String("too long")
	d = NewDecoder(e.Bytes())
	if _, err := d.Opaque(4); !errors.Is(err, ErrTooLong) {
		t.Fatalf("limit err = %v", err)
	}

	// Length prefix larger than remaining data.
	e = NewEncoder(8)
	e.Uint32(100)
	d = NewDecoder(e.Bytes())
	if _, err := d.Opaque(0); !errors.Is(err, ErrShort) {
		t.Fatalf("truncated opaque err = %v", err)
	}
}

func TestPropertyOpaqueRoundTrip(t *testing.T) {
	f := func(p []byte, s string, a uint32, b uint64) bool {
		e := NewEncoder(len(p) + len(s) + 32)
		e.Uint32(uint32(len(p)))
		e.FixedOpaque(p)
		e.String(s)
		e.Uint32(a)
		e.Uint64(b)
		d := NewDecoder(e.Bytes())
		gp, err := d.Opaque(0)
		if err != nil || !bytes.Equal(gp, p) {
			return false
		}
		gs, err := d.Opaque(0)
		if err != nil || string(gs) != s {
			return false
		}
		ga, err := d.Uint32()
		if err != nil || ga != a {
			return false
		}
		gb, err := d.Uint64()
		if err != nil || gb != b {
			return false
		}
		return d.Offset() == len(e.Bytes())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestOverZeroAllocs: an encoder held as a value over the caller's storage —
// a pooled buffer's tail in sunrpc and nfs — encodes a header with no encoder
// object, scratch buffer or copy.
func TestOverZeroAllocs(t *testing.T) {
	hdr := make([]byte, 28)
	n, inPlace := 0, false
	avg := testing.AllocsPerRun(1000, func() {
		clear(hdr)
		e := Over(hdr)
		e.Uint32(7)
		e.Uint64(1 << 40)
		e.FixedOpaque([]byte{1, 2, 3, 4, 5})
		e.String("name")
		n, inPlace = len(e.Bytes()), hdr[3] == 7 && hdr[27] == 'e'
	})
	if n != 28 || !inPlace {
		t.Fatalf("encoded %d bytes, into the caller's array: %v", n, inPlace)
	}
	if avg != 0 {
		t.Fatalf("encoding over the caller's buffer allocates %.0f objects, want 0", avg)
	}
	// Over starts at the beginning of its storage, whatever it held.
	e := Over([]byte{9, 9, 9, 9})
	e.Uint32(1)
	if !bytes.Equal(e.Bytes(), []byte{0, 0, 0, 1}) {
		t.Fatalf("Over appended after the old contents: %v", e.Bytes())
	}
}

// TestOverOverrunPanics: an Over call site that reserved too few bytes fails
// at the item that does not fit, rather than sending a truncated message.
func TestOverOverrunPanics(t *testing.T) {
	for name, enc := range map[string]func(e *Encoder){
		"uint32": func(e *Encoder) { e.Uint32(1); e.Uint32(2); e.Uint32(3) },
		"uint64": func(e *Encoder) { e.Uint32(1); e.Uint64(2) },
		"opaque": func(e *Encoder) { e.FixedOpaque(make([]byte, 7)); e.FixedOpaque(make([]byte, 1)) },
		"string": func(e *Encoder) { e.String("abcde") }, // 4 + 5 + 3 pad
	} {
		t.Run(name, func(t *testing.T) {
			backing := make([]byte, 8, 64) // spare capacity must not be used
			defer func() {
				if recover() == nil {
					t.Fatal("encoding past the reserved length did not panic")
				}
			}()
			e := Over(backing)
			enc(&e)
		})
	}
}
