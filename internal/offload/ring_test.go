package offload

import (
	"bytes"
	"testing"

	"dsasim/internal/dsa"
)

func TestSubmitRingCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ want, got int }{
		{0, 2}, {1, 2}, {2, 2}, {3, 4}, {16, 16}, {17, 32},
	} {
		r := newSubmitRing(tc.want)
		if c := r.capacity(); c != tc.got {
			t.Errorf("newSubmitRing(%d).capacity() = %d, want %d", tc.want, c, tc.got)
		}
	}
}

func TestSubmitRingFIFOAndFull(t *testing.T) {
	r := newSubmitRing(4)
	for i := 0; i < 4; i++ {
		if !r.push(dsa.Descriptor{Size: int64(i)}, uint64(i)) {
			t.Fatalf("push %d into empty ring failed", i)
		}
	}
	if r.push(dsa.Descriptor{}, 99) {
		t.Fatal("push into full ring succeeded")
	}
	if r.length() != 4 {
		t.Fatalf("length = %d, want 4", r.length())
	}
	for i := 0; i < 4; i++ {
		e, ok := r.pop()
		if !ok {
			t.Fatalf("pop %d from non-empty ring failed", i)
		}
		if e.d.Size != int64(i) || e.tag != uint64(i) {
			t.Fatalf("pop %d = {Size %d, tag %d}, want in-order", i, e.d.Size, e.tag)
		}
	}
	if _, ok := r.pop(); ok {
		t.Fatal("pop from empty ring succeeded")
	}
	// Wrapped reuse: the released slots accept a second lap.
	for i := 0; i < 4; i++ {
		if !r.push(dsa.Descriptor{}, uint64(i)) {
			t.Fatalf("wrapped push %d failed", i)
		}
	}
}

func TestSubmitRingZeroAlloc(t *testing.T) {
	r := newSubmitRing(8)
	d := dsa.Descriptor{Op: dsa.OpMemmove, Size: 4096}
	if n := testing.AllocsPerRun(1000, func() {
		r.push(d, 1)
		r.pop()
	}); n != 0 {
		t.Errorf("push+pop allocated %.1f times per run, want 0", n)
	}
}

// FuzzSubmitRing model-checks the ring against a reference FIFO: each
// script byte drives one operation (low bit selects push vs pop), and
// every observable — push/pop success, payload, tag, length — must match
// the model exactly, including across arbitrarily many wrap-arounds of
// a tiny ring. The fuzzer owns the schedule; the model owns the truth.
func FuzzSubmitRing(f *testing.F) {
	f.Add(uint8(4), []byte{0, 0, 2, 1, 0, 3, 1, 1})
	f.Add(uint8(1), bytes.Repeat([]byte{0, 1}, 64)) // two-slot ring, many laps
	f.Add(uint8(7), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add(uint8(0), []byte{1, 1, 0, 1, 1})
	f.Fuzz(func(t *testing.T, capacity uint8, script []byte) {
		r := newSubmitRing(int(capacity))
		var model []ringEntry
		seq := int64(0)
		for i, op := range script {
			if op&1 == 0 {
				d := dsa.Descriptor{Op: dsa.OpMemmove, Size: seq + 1}
				pushed := r.push(d, uint64(seq))
				if want := len(model) < r.capacity(); pushed != want {
					t.Fatalf("op %d: push = %v with %d/%d occupied, want %v",
						i, pushed, len(model), r.capacity(), want)
				}
				if pushed {
					model = append(model, ringEntry{d: d, tag: uint64(seq)})
					seq++
				}
			} else {
				e, ok := r.pop()
				if want := len(model) > 0; ok != want {
					t.Fatalf("op %d: pop ok = %v with %d occupied, want %v", i, ok, len(model), want)
				}
				if ok {
					head := model[0]
					model = model[1:]
					if e.d.Size != head.d.Size || e.tag != head.tag {
						t.Fatalf("op %d: pop = {Size %d, tag %d}, want {Size %d, tag %d} (lost, duplicated, or torn)",
							i, e.d.Size, e.tag, head.d.Size, head.tag)
					}
				}
			}
			if r.length() != len(model) {
				t.Fatalf("op %d: length = %d, model holds %d", i, r.length(), len(model))
			}
		}
	})
}
