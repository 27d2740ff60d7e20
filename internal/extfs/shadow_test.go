package extfs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"ncache/internal/sim"
)

// TestShadowModelRandomOps drives a long random operation sequence against
// the file system and an in-memory shadow model, checking full agreement:
// directory contents, file sizes, and every byte read.
func TestShadowModelRandomOps(t *testing.T) {
	r := newFsRig(t, 512)
	rng := sim.NewRNG(20260705)

	type shadowFile struct {
		ino  uint32
		data []byte
	}
	shadow := map[string]*shadowFile{}

	names := []string{"a", "b", "c", "d", "e", "f"}
	const ops = 400
	for step := 0; step < ops; step++ {
		name := names[rng.Intn(len(names))]
		switch rng.Intn(10) {
		case 0, 1: // create
			r.fs.Create(RootIno, []byte(name), ModeFile, func(ino uint32, err error) {
				if _, exists := shadow[name]; exists {
					if !errors.Is(err, ErrExists) {
						t.Fatalf("step %d: create %q = %v, want ErrExists", step, name, err)
					}
					return
				}
				if err != nil {
					t.Fatalf("step %d: create %q: %v", step, name, err)
				}
				shadow[name] = &shadowFile{ino: ino}
			})
			r.run(t)

		case 2: // remove
			r.fs.Remove(RootIno, []byte(name), func(err error) {
				if _, exists := shadow[name]; !exists {
					if !errors.Is(err, ErrNotFound) {
						t.Fatalf("step %d: remove %q = %v, want ErrNotFound", step, name, err)
					}
					return
				}
				if err != nil {
					t.Fatalf("step %d: remove %q: %v", step, name, err)
				}
				delete(shadow, name)
			})
			r.run(t)

		case 3, 4, 5: // write
			sf, exists := shadow[name]
			if !exists {
				continue
			}
			off := uint64(rng.Intn(6 * BlockSize))
			n := rng.Intn(2*BlockSize) + 1
			payload := make([]byte, n)
			var v uint64
			for j := range payload {
				if j%8 == 0 {
					v = rng.Uint64()
				}
				payload[j], v = byte(v), v>>8
			}
			r.write(t, sf.ino, off, payload)
			if need := off + uint64(n); uint64(len(sf.data)) < need {
				sf.data = append(sf.data, make([]byte, need-uint64(len(sf.data)))...)
			}
			copy(sf.data[off:], payload)

		case 6, 7, 8, 9: // read + verify
			sf, exists := shadow[name]
			if !exists {
				continue
			}
			off := uint64(rng.Intn(8 * BlockSize))
			n := rng.Intn(3*BlockSize) + 1
			got, _ := r.readAll(t, sf.ino, off, n)
			var want []byte
			if off < uint64(len(sf.data)) {
				end := off + uint64(n)
				if end > uint64(len(sf.data)) {
					end = uint64(len(sf.data))
				}
				want = sf.data[off:end]
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("step %d: read %q [%d,+%d): got %d bytes, want %d (content mismatch=%v)",
					step, name, off, n, len(got), len(want), !bytes.Equal(got, want))
			}
		}
	}

	// Final audit: directory and attributes agree with the shadow.
	ents := r.list(t)
	if len(ents) != len(shadow) {
		t.Fatalf("directory has %d entries, shadow has %d", len(ents), len(shadow))
	}
	for _, name := range ents {
		if _, ok := shadow[name]; !ok {
			t.Fatalf("unexpected entry %q", name)
		}
	}
	for name, sf := range shadow {
		name, sf := name, sf
		r.fs.Getattr(sf.ino, func(a Attr, err error) {
			if err != nil {
				t.Fatalf("final getattr %q: %v", name, err)
			}
			if a.Size != uint64(len(sf.data)) {
				t.Fatalf("%q size = %d, shadow %d", name, a.Size, len(sf.data))
			}
		})
		r.run(t)
	}

	// And the whole tree still fsck-s after a sync.
	r.fs.Sync(func(err error) {
		if err != nil {
			t.Fatalf("final sync: %v", err)
		}
	})
	r.run(t)
	r.fs.Fsck(func(err error) {
		if err != nil {
			t.Fatalf("final fsck: %v", err)
		}
	})
	r.run(t)
}

// TestShadowModelSurvivesRemount syncs, then re-mounts the same disk with a
// fresh cache and verifies all content is durable.
func TestShadowModelSurvivesRemount(t *testing.T) {
	r := newFsRig(t, 256)
	rng := sim.NewRNG(7)
	content := map[string][]byte{}
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("file%d", i)
		ino := r.create(t, name)
		data := make([]byte, (i+1)*3000)
		var v uint64
		for j := range data {
			if j%8 == 0 {
				v = rng.Uint64()
			}
			data[j], v = byte(v), v>>8
		}
		r.write(t, ino, 0, data)
		content[name] = data
	}
	r.fs.Sync(func(err error) {
		if err != nil {
			t.Fatalf("sync: %v", err)
		}
	})
	r.run(t)

	// Fresh cache over the same disk: all state must come from "disk".
	cache2 := newCacheOver(r)
	var fs2 *FS
	Mount(r.node, cache2, func(fs *FS, err error) {
		if err != nil {
			t.Fatalf("remount: %v", err)
		}
		fs2 = fs
	})
	r.run(t)
	for name, want := range content {
		name, want := name, want
		var ino uint32
		fs2.Lookup(RootIno, []byte(name), func(i uint32, err error) {
			if err != nil {
				t.Fatalf("lookup %q after remount: %v", name, err)
			}
			ino = i
		})
		r.run(t)
		r2 := &fsRig{eng: r.eng, node: r.node, disk: r.disk, cache: cache2, fs: fs2}
		got, _ := r2.readAll(t, ino, 0, len(want)+100)
		if !bytes.Equal(got, want) {
			t.Fatalf("%q content lost across remount", name)
		}
	}
}
