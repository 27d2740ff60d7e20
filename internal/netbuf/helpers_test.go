package netbuf

import "testing"

// testPool returns a pool of seg-byte buffers behind DefaultHeadroom (of
// DefaultBufSize for seg <= 0) whose MustBeDrained runs when t ends, so a
// fixture a test leaves unreleased fails it, in either mode.
func testPool(t testing.TB, seg int) *Pool {
	t.Helper()
	p := NewPool(t.Name(), DefaultHeadroom, seg, 0)
	t.Cleanup(func() {
		defer func() {
			if r := recover(); r != nil {
				t.Error(r)
			}
		}()
		p.MustBeDrained()
	})
	return p
}

// testChain copies payload onto a testPool of seg-byte buffers.
func testChain(t testing.TB, payload []byte, seg int) *Chain {
	t.Helper()
	return testPool(t, seg).GetChain(payload)
}

// testBuf returns a buffer of p holding a copy of payload, which must fit.
func testBuf(p *Pool, payload []byte) *Buf {
	b := p.Get()
	if err := b.Append(payload); err != nil {
		panic(err)
	}
	return b
}
