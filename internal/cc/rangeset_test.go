package cc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"starlinkview/internal/netsim"
)

// refSet is a brute-force reference model of rangeSet: a boolean per byte.
type refSet map[int64]bool

func (r refSet) add(start, end int64) {
	for i := start; i < end; i++ {
		r[i] = true
	}
}

func (r refSet) trimBelow(mark int64) {
	for k := range r {
		if k < mark {
			delete(r, k)
		}
	}
}

func (r refSet) total() int64 { return int64(len(r)) }

// TestRangeSetMatchesReference drives random operations through both the
// real rangeSet and the brute-force model and demands identical observable
// behaviour.
func TestRangeSetMatchesReference(t *testing.T) {
	const space = 200 // small byte space keeps the reference cheap
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var rs rangeSet
		ref := refSet{}
		for op := 0; op < 60; op++ {
			switch rng.Intn(3) {
			case 0, 1: // add
				start := int64(rng.Intn(space))
				end := start + int64(rng.Intn(space/4))
				rs.add(start, end)
				ref.add(start, end)
			case 2: // trim
				mark := int64(rng.Intn(space))
				rs.trimBelow(mark)
				ref.trimBelow(mark)
			}
			// Invariants after every operation.
			if rs.total() != ref.total() {
				t.Logf("seed %d op %d: total %d != ref %d", seed, op, rs.total(), ref.total())
				return false
			}
			for off := int64(0); off < space; off++ {
				if rs.covers(off) != ref[off] {
					t.Logf("seed %d op %d: covers(%d) = %v, ref %v", seed, op, off, rs.covers(off), ref[off])
					return false
				}
			}
			// Structural invariants: sorted, disjoint, non-empty ranges.
			for i, r := range rs.rs {
				if r.End <= r.Start {
					t.Logf("empty range %+v", r)
					return false
				}
				if i > 0 && rs.rs[i-1].End > r.Start {
					t.Logf("overlapping/touching ranges %+v %+v", rs.rs[i-1], r)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRangeSetAddMerges(t *testing.T) {
	var s rangeSet
	s.add(10, 20)
	s.add(30, 40)
	if len(s.rs) != 2 {
		t.Fatalf("ranges = %d, want 2", len(s.rs))
	}
	s.add(20, 30) // exactly bridges the gap
	if len(s.rs) != 1 || s.rs[0] != (netsim.SackBlock{Start: 10, End: 40}) {
		t.Fatalf("merge failed: %+v", s.rs)
	}
	s.add(5, 45) // superset absorbs
	if len(s.rs) != 1 || s.rs[0] != (netsim.SackBlock{Start: 5, End: 45}) {
		t.Fatalf("superset failed: %+v", s.rs)
	}
}

func TestRangeSetAddEmptyAndClear(t *testing.T) {
	var s rangeSet
	s.add(10, 10) // empty
	s.add(10, 5)  // inverted
	if len(s.rs) != 0 {
		t.Fatalf("degenerate adds created ranges: %+v", s.rs)
	}
	s.add(1, 4)
	s.clear()
	if s.total() != 0 {
		t.Fatal("clear failed")
	}
}

func TestRangeSetTrimPartial(t *testing.T) {
	var s rangeSet
	s.add(10, 30)
	s.trimBelow(20)
	if s.total() != 10 || !s.covers(20) || s.covers(19) {
		t.Fatalf("partial trim wrong: %+v", s.rs)
	}
	s.trimBelow(100)
	if s.total() != 0 {
		t.Fatal("full trim failed")
	}
}

// TestRangeSetAddKeepsHandedOutSlices: acks carry the receiver's ranges
// without a copy, so add must never write into a backing array an earlier
// slice of the set still points at.
func TestRangeSetAddKeepsHandedOutSlices(t *testing.T) {
	var s rangeSet
	s.add(10, 20)
	s.add(40, 50)
	s.add(70, 80)
	sent := s.rs[1:] // what an ack carries after the prefix is consumed
	want := append([]netsim.SackBlock(nil), sent...)
	s.rs = sent
	s.add(55, 60)
	s.add(45, 72)
	s.add(0, 5)
	for i := range want {
		if sent[i] != want[i] {
			t.Fatalf("handed-out blocks changed: %+v, want %+v", sent, want)
		}
	}
}
