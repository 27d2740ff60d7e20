package sim

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// tagged is the test-side identity of one staged cross-shard send: the
// canonical admission key (at, srcShard, srcSeq).
type tagged struct {
	at  Time
	src int32
	seq uint64
}

// taggedLess is the canonical admission order the old global-sort
// admission used — the oracle the k-way merge must reproduce.
func taggedLess(a, b *tagged) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

// admitOrder runs one barrier admission through the real outbox machinery:
// each source's sends land in its per-destination outbox in srcSeq order
// (the PostTo invariant — a shard's own posts are never reordered), the
// coordinator's admitStagedTo sorts and k-way merges the runs into the
// destination heap, and the heap's pop order is returned.
func admitOrder(batch []tagged) []tagged {
	maxSrc := 0
	for i := range batch {
		if int(batch[i].src) > maxSrc {
			maxSrc = int(batch[i].src)
		}
	}
	ctl := NewSharded(Config{Workers: 1, Lookahead: 1})
	defer ctl.Close()
	shards := []*Engine{ctl}
	for i := 1; i <= maxSrc; i++ {
		shards = append(shards, ctl.NewShard(fmt.Sprintf("s%d", i)))
	}
	dst := ctl
	for _, s := range shards {
		for len(s.out) <= dst.id {
			s.out = append(s.out, nil)
		}
	}
	// Distribute into per-source runs and append each run in srcSeq order;
	// the cross-source interleaving of the original batch is irrelevant by
	// construction (separate outboxes), which is exactly the worker-
	// independence argument.
	runs := make([][]tagged, maxSrc+1)
	for _, tg := range batch {
		runs[tg.src] = append(runs[tg.src], tg)
	}
	var out []tagged
	for src := range runs {
		r := append([]tagged(nil), runs[src]...)
		sort.Slice(r, func(i, j int) bool { return r[i].seq < r[j].seq })
		for _, tg := range r {
			tg := tg
			shards[src].out[dst.id] = append(shards[src].out[dst.id], staged{
				at:     tg.at,
				srcSeq: tg.seq,
				h:      func(fn, _ any, _ int64) { fn.(func())() },
				a:      func() { out = append(out, tg) },
			})
		}
	}
	ctl.co.admitStagedTo(dst)
	for len(dst.events) > 0 {
		dst.fire(dst.pop())
	}
	return out
}

// oracle is the old admission semantics: one global sort of the batch by
// (at, srcShard, srcSeq).
func oracle(batch []tagged) []tagged {
	cp := append([]tagged(nil), batch...)
	sort.SliceStable(cp, func(i, j int) bool { return taggedLess(&cp[i], &cp[j]) })
	return cp
}

// TestStagedAdmissionOrderProperty: for random batches under random
// arrival interleavings, the merged admission order equals the global-sort
// oracle — the k-way merge over per-source runs is a pure function of the
// batch's contents and reproduces the canonical (at, srcShard, srcSeq)
// order exactly.
func TestStagedAdmissionOrderProperty(t *testing.T) {
	type wireEvent struct {
		At    uint16 // small domain to force heavy time collisions
		Shard uint8
		Seq   uint8
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}
	prop := func(events []wireEvent, shuffleSeed int64) bool {
		// Build a batch with unique (shard, seq) per source, as PostTo
		// guarantees: re-key seqs per shard in arrival order.
		seqs := map[uint8]uint64{}
		batch := make([]tagged, len(events))
		for i, w := range events {
			batch[i] = tagged{
				at:  Time(w.At),
				src: int32(w.Shard % 8),
				seq: seqs[w.Shard%8],
			}
			seqs[w.Shard%8]++
		}
		ref := oracle(batch)
		if got := admitOrder(batch); !reflect.DeepEqual(got, ref) {
			return false
		}
		// Any interleaving of the same batch admits identically.
		sh := append([]tagged(nil), batch...)
		rand.New(rand.NewSource(shuffleSeed)).Shuffle(len(sh), func(i, j int) { sh[i], sh[j] = sh[j], sh[i] })
		return reflect.DeepEqual(admitOrder(sh), ref)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestTaggedLessTotalOrder: the canonical comparator is a strict weak
// ordering and, on the unique keys PostTo produces, a total order.
func TestTaggedLessTotalOrder(t *testing.T) {
	prop := func(a1, a2 uint16, s1, s2 uint8, q1, q2 uint8) bool {
		a := &tagged{at: Time(a1), src: int32(s1), seq: uint64(q1)}
		b := &tagged{at: Time(a2), src: int32(s2), seq: uint64(q2)}
		equal := a.at == b.at && a.src == b.src && a.seq == b.seq
		switch {
		case equal:
			return !taggedLess(a, b) && !taggedLess(b, a)
		default:
			return taggedLess(a, b) != taggedLess(b, a)
		}
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// decodeBatch turns fuzz bytes into a staged batch with PostTo-valid keys
// (per-shard sequential seqs).
func decodeBatch(data []byte) []tagged {
	var batch []tagged
	seqs := [16]uint64{}
	for len(data) >= 3 {
		at := Time(binary.LittleEndian.Uint16(data))
		shard := int32(data[2] % 16)
		batch = append(batch, tagged{at: at, src: shard, seq: seqs[shard]})
		seqs[shard]++
		data = data[3:]
	}
	return batch
}

// FuzzStagedAdmissionOrder fuzzes the barrier tie-break: for any encoded
// batch, the merged admission equals the global-sort oracle and is
// invariant under reversal and rotation of the arrival order (stand-ins
// for arbitrary worker interleavings).
func FuzzStagedAdmissionOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 1, 0, 1, 2, 0, 0})
	f.Add([]byte{0, 0, 3, 0, 0, 3, 0, 0, 2, 5, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*512 {
			data = data[:3*512]
		}
		batch := decodeBatch(data)
		ref := oracle(batch)
		if !reflect.DeepEqual(admitOrder(batch), ref) {
			t.Fatal("merged admission diverges from the global-sort oracle")
		}
		rev := make([]tagged, len(batch))
		for i := range batch {
			rev[len(batch)-1-i] = batch[i]
		}
		if !reflect.DeepEqual(admitOrder(rev), ref) {
			t.Fatal("admission order depends on arrival order (reversal)")
		}
		if len(batch) > 1 {
			rot := append(append([]tagged(nil), batch[1:]...), batch[0])
			if !reflect.DeepEqual(admitOrder(rot), ref) {
				t.Fatal("admission order depends on arrival order (rotation)")
			}
		}
	})
}

// FuzzPostToPairBound fuzzes the per-pair PostTo validation: a send is
// accepted exactly when its delay meets the pair's lookahead bound, and a
// NoPost pair rejects every delay.
func FuzzPostToPairBound(f *testing.F) {
	f.Add(uint32(5000), uint32(7000), uint32(6000), false)
	f.Add(uint32(5000), uint32(5000), uint32(4999), false)
	f.Add(uint32(5000), uint32(1), uint32(0), true)
	f.Fuzz(func(t *testing.T, laDef, laPair, d uint32, noPost bool) {
		def := Duration(laDef%1_000_000) + 1
		pair := Duration(laPair%1_000_000) + 1
		if noPost {
			pair = NoPost
		}
		delay := Duration(d % 2_000_000)
		ctl := NewSharded(Config{Workers: 1, Lookahead: def})
		defer ctl.Close()
		a := ctl.NewShard("a")
		b := ctl.NewShard("b")
		ctl.SetLookahead(a, b, pair)
		if got := ctl.PairLookahead(a, b); got != pair {
			t.Fatalf("PairLookahead = %v, want %v", got, pair)
		}
		if got := ctl.PairLookahead(b, a); got != def {
			t.Fatalf("untouched pair lookahead = %v, want default %v", got, def)
		}
		want := delay >= pair
		a.Schedule(0, func() {
			defer func() {
				r := recover()
				if want && r != nil {
					t.Fatalf("PostTo(%v) with pair bound %v panicked: %v", delay, pair, r)
				}
				if !want && r == nil {
					t.Fatalf("PostTo(%v) below pair bound %v did not panic", delay, pair)
				}
			}()
			postFn(a, b, delay, func() {})
		})
		if err := ctl.Run(); err != nil {
			t.Fatal(err)
		}
	})
}
