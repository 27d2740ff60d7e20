package passthru

import (
	"bytes"
	"testing"

	"ncache/internal/extfs"
	"ncache/internal/lkey"
)

// keyLeading returns n bytes that begin with k's marshalled form, the rest a
// pattern.
func keyLeading(k lkey.Key, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*13 + 1)
	}
	m := k.Marshal()
	copy(p, m[:])
	return p
}

// TestKeyLeadingWriteIsData: a client WRITE whose payload begins with the
// bytes of a key another block is cached under is data like any other. The
// unaligned write takes NCache's physical path, so its bytes reach the
// file-system cache as they are; they must read back, land on the platter
// and leave the other block's entry alone.
func TestKeyLeadingWriteIsData(t *testing.T) {
	const bs = extfs.BlockSize
	for _, tc := range []struct {
		name       string
		key        func(fh lkey.FH, spec extfs.FileSpec) lkey.Key
		setup      func(t *testing.T, cl *Cluster, fh lkey.FH)
		wantRemaps uint64 // the FHO blocks the sync flushes
	}{
		{
			name: "FHO key of a written block",
			key:  func(fh lkey.FH, _ extfs.FileSpec) lkey.Key { return lkey.ForFHO(fh, 0) },
			setup: func(t *testing.T, cl *Cluster, fh lkey.FH) {
				writeFile(t, cl, fh, 0, bytes.Repeat([]byte{0x5A}, bs))
			},
			wantRemaps: 1,
		},
		{
			name: "LBN key of a read block",
			key:  func(_ lkey.FH, spec extfs.FileSpec) lkey.Key { return lkey.ForLBN(spec.StartLBN + 20) },
			setup: func(t *testing.T, cl *Cluster, fh lkey.FH) {
				readFile(t, cl, fh, 20*bs, bs)
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl, spec := testCluster(t, NCache, false)
			fh := lookupFile(t, cl, "data.bin")
			tc.setup(t, cl, fh)
			payload := keyLeading(tc.key(fh, spec), bs-1)
			writeFile(t, cl, fh, 10*bs, payload)
			if got := readFile(t, cl, fh, 10*bs, len(payload)); !bytes.Equal(got, payload) {
				t.Errorf("READ returned %d wrong bytes of %d", diffBytes(got, payload), len(payload))
			}
			if err := syncCache(t, cl); err != nil {
				t.Fatalf("sync: %v", err)
			}
			want := append(payload, expect(11*bs-1, 1)...)
			if got := cl.Storage.Array.PeekBlock(spec.StartLBN + 10); !bytes.Equal(got, want) {
				t.Errorf("platter holds %d wrong bytes of %d", diffBytes(got, want), len(want))
			}
			if got := cl.App.Module.Stats.Remaps; got != tc.wantRemaps {
				t.Errorf("remaps = %d, want %d", got, tc.wantRemaps)
			}
		})
	}
}

// TestKeyLeadingFormattedBlockIsData: a block on storage that begins with a
// key's bytes reads back as stored, cold, whether or not a module captures
// it on the way up.
func TestKeyLeadingFormattedBlockIsData(t *testing.T) {
	const bs = extfs.BlockSize
	content := func(off uint64, dst []byte) {
		fileContent(off, dst)
		if off == 3*bs {
			m := lkey.ForLBN(1).Marshal()
			copy(dst, m[:])
		}
	}
	want := make([]byte, bs)
	content(3*bs, want)
	for _, mode := range []Mode{Original, NCache} {
		t.Run(mode.String(), func(t *testing.T) {
			cl, _ := formattedCluster(t, ClusterConfig{Mode: mode, NumClients: 1, BlocksPerDisk: 16 * 1024}, content)
			fh := lookupFile(t, cl, "data.bin")
			if got := readFile(t, cl, fh, 3*bs, bs); !bytes.Equal(got, want) {
				t.Fatalf("READ returned %d wrong bytes of %d", diffBytes(got, want), len(want))
			}
		})
	}
}

// diffBytes counts the positions where a and b differ, a length mismatch
// counting every position past the shorter.
func diffBytes(a, b []byte) int {
	n := max(len(a), len(b)) - min(len(a), len(b))
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}
