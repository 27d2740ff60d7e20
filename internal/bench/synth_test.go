package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// synthGolden is the SHA-256 of synthContent's 4,096-byte output for the
// LBNs synthLBNs names, concatenated: the bytes every committed result was
// measured over, so a faster synthContent must reproduce them exactly.
const synthGolden = "32cebaa301c563b6996865f28c09fc8e9e1df5c1e533b7a55ffe8e69f155ecb9"

func synthLBNs() []int64 {
	lbns := make([]int64, 50)
	for i := range lbns {
		lbns[i] = int64(i) * 1_000_003
	}
	return lbns
}

// TestSynthContentGolden pins synthContent's bytes: for 50 LBNs, the full
// block hashes to the golden value and every length from 0 to 4,096 yields
// exactly that block's prefix, so the tail of a length that is not a
// multiple of 8 is covered too.
func TestSynthContentGolden(t *testing.T) {
	h := sha256.New()
	full := make([]byte, 4096)
	dst := make([]byte, 4096)
	for _, lbn := range synthLBNs() {
		synthContent(lbn, full)
		h.Write(full)
		for n := 0; n <= len(full); n++ {
			for i := range dst[:n] {
				dst[i] = 0xAA
			}
			synthContent(lbn, dst[:n])
			if !bytes.Equal(dst[:n], full[:n]) {
				t.Fatalf("lbn %d, length %d: not the block's prefix", lbn, n)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != synthGolden {
		t.Fatalf("synthContent bytes hash to %s, want %s", got, synthGolden)
	}
}

func BenchmarkSynthContent4K(b *testing.B) {
	dst := make([]byte, 4096)
	b.SetBytes(int64(len(dst)))
	for i := range b.N {
		synthContent(int64(i), dst)
	}
}
