package tmk

import (
	"fmt"
	"testing"
)

// TestHomeOfBlockPlacement checks the static home rule on a live cluster:
// page i of an n-page region is homed at ⌊i·w/n⌋, so each compute rank
// homes one contiguous block, blocks follow rank order, and their sizes
// differ by at most one page. The region sizes cover one page, fewer
// pages than ranks, a count not divisible by the rank count, and an exact
// multiple; regions allocated back to back must not shift each other's
// blocks.
func TestHomeOfBlockPlacement(t *testing.T) {
	const w = 4
	want := map[int][]int{
		1:  {0},
		3:  {0, 1, 2},
		10: {0, 0, 0, 1, 1, 2, 2, 2, 3, 3},
		8:  {0, 0, 1, 1, 2, 2, 3, 3},
	}
	sizes := []int{1, 3, 10, 8, 512}
	for _, member := range []bool{false, true} {
		t.Run(fmt.Sprintf("membership=%v", member), func(t *testing.T) {
			cfg := DefaultConfig(w, TransportRDMAGM)
			cfg.Membership.Enabled = member
			got := make(map[int][][]int) // region size → per-rank views
			_, err := Run(cfg, func(tp *Proc) {
				for _, npages := range sizes {
					r := tp.AllocShared(npages * PageSize)
					homes := make([]int, npages)
					for i := range homes {
						homes[i] = tp.homeOf(r.StartPage + int32(i))
					}
					got[npages] = append(got[npages], homes)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, npages := range sizes {
				views := got[npages]
				if len(views) != w {
					t.Fatalf("%d-page region: %d rank views, want %d", npages, len(views), w)
				}
				for rank, homes := range views[1:] {
					if fmt.Sprint(homes) != fmt.Sprint(views[0]) {
						t.Errorf("%d-page region: rank %d places %v, rank 0 %v", npages, rank+1, homes, views[0])
					}
				}
				homes := views[0]
				if exp, ok := want[npages]; ok && fmt.Sprint(homes) != fmt.Sprint(exp) {
					t.Errorf("%d-page region: homes %v, want %v", npages, homes, exp)
				}
				count := make([]int, w)
				for i, h := range homes {
					if i > 0 && h < homes[i-1] {
						t.Errorf("%d-page region: page %d homed at %d after %d", npages, i, h, homes[i-1])
					}
					count[h]++
				}
				if npages >= w {
					for rank, c := range count {
						if c != npages/w && c != (npages+w-1)/w {
							t.Errorf("%d-page region: rank %d homes %d pages", npages, rank, c)
						}
					}
				}
			}
		})
	}
}

// TestBlockHomeFormula pins blockHome against the definition for every
// region size up to 40 pages and every cluster width up to 17: the home
// of page i is the rank whose block [⌈h·n/w⌉, ⌈(h+1)·n/w⌉) contains i.
func TestBlockHomeFormula(t *testing.T) {
	for w := 1; w <= 17; w++ {
		for n := int32(1); n <= 40; n++ {
			for i := int32(0); i < n; i++ {
				h := blockHome(i, n, w)
				lo := (int64(h)*int64(n) + int64(w) - 1) / int64(w)
				hi := (int64(h+1)*int64(n) + int64(w) - 1) / int64(w)
				if h < 0 || h >= w || int64(i) < lo || int64(i) >= hi {
					t.Fatalf("blockHome(%d, %d, %d) = %d, block [%d,%d)", i, n, w, h, lo, hi)
				}
			}
		}
	}
	// The products stay in range for the largest regions the int32 page
	// space allows.
	if h := blockHome(1<<31-2, 1<<31-1, 256); h != 255 {
		t.Errorf("blockHome near the page-id limit = %d, want 255", h)
	}
}
