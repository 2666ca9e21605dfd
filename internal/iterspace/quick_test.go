package iterspace

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// Property: Next then Prev (and Prev then Next) return to the same point,
// anywhere in a tiled space.
func TestQuickNextPrevInverse(t *testing.T) {
	box := NewBox([]int64{1, 1, 1}, []int64{9, 7, 5})
	spaces := []Space{
		box,
		NewTiled(box, []int64{4, 3, 2}),
		NewPermutedTiled(box, []int64{2, 7, 3}, []int{2, 0, 1}),
		NewPermutedBox(box, []int{1, 2, 0}),
	}
	r := rand.New(rand.NewPCG(123, 321))
	for si, sp := range spaces {
		p := make([]int64, sp.NumCoords())
		q := make([]int64, sp.NumCoords())
		for iter := 0; iter < 500; iter++ {
			sp.Sample(r, p)
			copy(q, p)
			if sp.Next(q) {
				if !sp.Prev(q) || Compare(p, q) != 0 {
					t.Fatalf("space %d: Prev(Next(%v)) = %v", si, p, q)
				}
			}
			copy(q, p)
			if sp.Prev(q) {
				if !sp.Next(q) || Compare(p, q) != 0 {
					t.Fatalf("space %d: Next(Prev(%v)) = %v", si, p, q)
				}
			}
		}
	}
}

// Property: FromOriginal produces a contained point whose ToOriginal is
// the input, for arbitrary in-range original points.
func TestQuickLiftRoundTrip(t *testing.T) {
	box := NewBox([]int64{2, 0}, []int64{21, 16})
	spaces := []Space{
		NewTiled(box, []int64{5, 4}),
		NewPermutedTiled(box, []int64{3, 9}, []int{1, 0}),
		NewPermutedBox(box, []int{1, 0}),
	}
	for si, sp := range spaces {
		sp := sp
		f := func(a, b uint8) bool {
			orig := []int64{2 + int64(a)%20, int64(b) % 17}
			p := make([]int64, sp.NumCoords())
			back := make([]int64, 2)
			sp.FromOriginal(orig, p)
			if !sp.Contains(p) {
				return false
			}
			sp.ToOriginal(p, back)
			return back[0] == orig[0] && back[1] == orig[1]
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("space %d: %v", si, err)
		}
	}
}

// Property: OrigMap is consistent with ToOriginal on every space type.
func TestQuickOrigMapConsistent(t *testing.T) {
	box := NewBox([]int64{1, 1}, []int64{8, 6})
	spaces := []Space{
		box,
		NewTiled(box, []int64{3, 2}),
		NewPermutedTiled(box, []int64{3, 2}, []int{1, 0}),
		NewPermutedBox(box, []int{1, 0}),
	}
	r := rand.New(rand.NewPCG(55, 66))
	for si, sp := range spaces {
		om := sp.OrigMap()
		if len(om) != sp.NumCoords() {
			t.Fatalf("space %d: OrigMap len %d", si, len(om))
		}
		p := make([]int64, sp.NumCoords())
		orig := make([]int64, sp.OrigDims())
		for iter := 0; iter < 200; iter++ {
			sp.Sample(r, p)
			sp.ToOriginal(p, orig)
			for c, d := range om {
				if d >= 0 && p[c] != orig[d] {
					t.Fatalf("space %d: coord %d claims dim %d but %d != %d",
						si, c, d, p[c], orig[d])
				}
			}
		}
	}
}

// Property: InnerRun(p) counts exactly the Prev calls from p that only
// decrement the last coordinate; the next Prev either fails or moves
// another coordinate.
func TestQuickInnerRun(t *testing.T) {
	box := NewBox([]int64{1, 0, 2}, []int64{9, 7, 6})
	spaces := []Space{
		box,
		NewTiled(box, []int64{4, 3, 2}),
		NewTiled(box, []int64{9, 8, 5}),
		NewPermutedTiled(box, []int64{2, 7, 3}, []int{2, 0, 1}),
		NewPermutedTiled(box, []int64{1, 1, 1}, []int{1, 2, 0}),
		NewPermutedBox(box, []int{1, 2, 0}),
	}
	r := rand.New(rand.NewPCG(77, 78))
	for si, sp := range spaces {
		p := make([]int64, sp.NumCoords())
		q := make([]int64, sp.NumCoords())
		last := len(p) - 1
		for iter := 0; iter < 300; iter++ {
			sp.Sample(r, p)
			run := sp.InnerRun(p)
			if run < 0 {
				t.Fatalf("space %d: InnerRun(%v) = %d", si, p, run)
			}
			copy(q, p)
			for j := int64(1); j <= run; j++ {
				if !sp.Prev(q) {
					t.Fatalf("space %d: Prev failed %d steps into a run of %d from %v", si, j, run, p)
				}
				if q[last] != p[last]-j || Compare(q[:last], p[:last]) != 0 {
					t.Fatalf("space %d: step %d of run %d from %v reached %v", si, j, run, p, q)
				}
			}
			before := append([]int64(nil), q...)
			if sp.Prev(q) && Compare(q[:last], before[:last]) == 0 {
				t.Fatalf("space %d: run from %v is longer than InnerRun=%d", si, p, run)
			}
		}
	}
}
