// Package detailed implements detailed placement: local refinement of a
// legalized placement that reduces wirelength without breaking legality.
// Two classic moves are used — intra-row adjacent swaps and global swaps of
// equal-width cells toward their optimal regions — completing the
// GP → LG → DP flow the paper's §1 describes.
package detailed

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"dtgp/internal/geom"
	"dtgp/internal/netlist"
)

// Options configure refinement.
type Options struct {
	// Passes is the number of full sweeps (adjacent + global) to run.
	Passes int
	// GlobalSwapCandidates bounds how many same-width partners are tried
	// per cell in the global-swap phase.
	GlobalSwapCandidates int
}

// DefaultOptions returns the standard configuration.
func DefaultOptions() Options {
	return Options{Passes: 3, GlobalSwapCandidates: 6}
}

// Result reports refinement outcome.
type Result struct {
	HPWLBefore, HPWLAfter float64
	AdjacentSwaps         int
	GlobalSwaps           int
	Passes                int
}

// Refine improves the design in place. The input must be legal (row
// aligned, overlap free); the output stays legal.
func Refine(d *netlist.Design, opts Options) (*Result, error) {
	return refine(d, opts, false)
}

// refine runs the swap passes; weighted makes swap costs use net weights.
func refine(d *netlist.Design, opts Options, weighted bool) (*Result, error) {
	if opts.Passes <= 0 {
		opts.Passes = 3
	}
	if opts.GlobalSwapCandidates <= 0 {
		opts.GlobalSwapCandidates = 6
	}
	r := &refiner{d: d, weighted: weighted}
	if err := r.init(); err != nil {
		return nil, err
	}
	res := &Result{HPWLBefore: d.HPWL()}
	for pass := 0; pass < opts.Passes; pass++ {
		adj := r.adjacentSwapPass()
		glob := r.globalSwapPass(opts.GlobalSwapCandidates)
		res.AdjacentSwaps += adj
		res.GlobalSwaps += glob
		res.Passes++
		if adj+glob == 0 {
			break
		}
	}
	res.HPWLAfter = d.HPWL()
	return res, nil
}

type refiner struct {
	d *netlist.Design
	// weighted makes swap costs use net weights (timing-aware mode).
	weighted bool
	// rows[y-key] holds cell indices sorted by x.
	rowOf   map[int64][]int32 //dtgp:index elem=cell
	rowKeys []int64
	// Reused per-call buffers: the nets netsCost has already counted,
	// nearestCells' partner distances and nearest partners, and the
	// bounding-box coordinates optimalRegion takes the median of.
	seenNets []int32 //dtgp:index elem=net
	near     []cellDist
	top      []cellDist
	xs, ys   []float64
}

// cellDist is a partner cell and its distance to a target point.
type cellDist struct {
	ci   int32 //dtgp:index domain=cell
	dist float64
}

func yKey(y float64) int64 { return int64(math.Round(y * 1e3)) }

func (r *refiner) init() error {
	d := r.d
	r.rowOf = map[int64][]int32{}
	for ci := range d.Cells {
		c := &d.Cells[ci]
		if !c.Movable() || c.Class == netlist.ClassFiller {
			continue
		}
		k := yKey(c.Pos.Y)
		r.rowOf[k] = append(r.rowOf[k], int32(ci))
	}
	for k, cells := range r.rowOf {
		sort.Slice(cells, func(i, j int) bool {
			return d.Cells[cells[i]].Pos.X < d.Cells[cells[j]].Pos.X
		})
		// Sanity: no overlap.
		for i := 1; i < len(cells); i++ {
			a, b := &d.Cells[cells[i-1]], &d.Cells[cells[i]]
			if a.Pos.X+a.W > b.Pos.X+1e-6 {
				return fmt.Errorf("detailed: input not legal: %s overlaps %s", a.Name, b.Name)
			}
		}
		r.rowKeys = append(r.rowKeys, k)
	}
	sort.Slice(r.rowKeys, func(i, j int) bool { return r.rowKeys[i] < r.rowKeys[j] })
	return nil
}

// netsCost sums the HPWL of every net touching the given cells (each net
// once, in first-seen pin order). A swap touches a handful of nets, so the
// linear dedupe over the reused seenNets buffer beats a set.
func (r *refiner) netsCost(cells ...int32) float64 {
	d := r.d
	r.seenNets = r.seenNets[:0]
	total := 0.0
	for _, ci := range cells {
		for _, pid := range d.Cells[ci].Pins {
			ni := d.Pins[pid].Net
			if ni < 0 || slices.Contains(r.seenNets, ni) {
				continue
			}
			r.seenNets = append(r.seenNets, ni)
			if r.weighted {
				total += d.Nets[ni].Weight * d.NetHPWL(ni)
			} else {
				total += d.NetHPWL(ni)
			}
		}
	}
	return total
}

// adjacentSwapPass tries swapping each neighbouring pair in every row.
func (r *refiner) adjacentSwapPass() int {
	d := r.d
	swaps := 0
	for _, k := range r.rowKeys {
		cells := r.rowOf[k]
		for i := 0; i+1 < len(cells); i++ {
			a, b := cells[i], cells[i+1]
			ca, cb := &d.Cells[a], &d.Cells[b]
			// The pair occupies [ca.X, cb.X+cb.W); swapping keeps that
			// span (gap between them is preserved after b).
			gap := cb.Pos.X - (ca.Pos.X + ca.W)
			before := r.netsCost(a, b)
			ax, bx := ca.Pos.X, cb.Pos.X
			cb.Pos.X = ax
			ca.Pos.X = ax + cb.W + gap
			after := r.netsCost(a, b)
			if after < before-1e-9 {
				cells[i], cells[i+1] = b, a
				swaps++
			} else {
				ca.Pos.X, cb.Pos.X = ax, bx
			}
		}
	}
	return swaps
}

// globalSwapPass tries swapping each cell with same-width cells close to
// its optimal region (the median of its connected nets' bounding boxes).
func (r *refiner) globalSwapPass(candidates int) int {
	d := r.d
	// Bucket movable cells by width for partner lookup.
	type wkey int64
	byWidth := map[wkey][]int32{}
	wk := func(w float64) wkey { return wkey(math.Round(w * 1e3)) }
	for _, k := range r.rowKeys {
		for _, ci := range r.rowOf[k] {
			byWidth[wk(d.Cells[ci].W)] = append(byWidth[wk(d.Cells[ci].W)], ci)
		}
	}
	swaps := 0
	for _, k := range r.rowKeys {
		for _, a := range r.rowOf[k] {
			ca := &d.Cells[a]
			opt, ok := r.optimalRegion(a)
			if !ok {
				continue
			}
			// Already close to optimal: skip.
			if ca.Center().ManhattanDist(opt) < 2*ca.H {
				continue
			}
			partners := byWidth[wk(ca.W)]
			// Try the few partners nearest the optimal point. a is among
			// its partners once, so the candidates+1 nearest hold every
			// partner the loop tries.
			best := int32(-1)
			bestGain := 1e-9
			tried := 0
			for _, near := range r.nearestCells(partners, opt, candidates+1) {
				b := near.ci
				if b == a || tried >= candidates {
					continue
				}
				tried++
				cb := &d.Cells[b]
				before := r.netsCost(a, b)
				ca.Pos, cb.Pos = cb.Pos, ca.Pos
				after := r.netsCost(a, b)
				ca.Pos, cb.Pos = cb.Pos, ca.Pos // undo
				if gain := before - after; gain > bestGain {
					bestGain = gain
					best = b
				}
			}
			if best >= 0 {
				cb := &d.Cells[best]
				rowA, rowB := yKey(ca.Pos.Y), yKey(cb.Pos.Y)
				ca.Pos, cb.Pos = cb.Pos, ca.Pos
				r.swapEntries(a, best, rowA, rowB)
				swaps++
			}
		}
	}
	return swaps
}

// swapEntries fixes the row occupancy lists after cells a and b (equal
// width) exchanged positions: a's old slot now holds b and vice versa, and
// the x-order within each row is unchanged because the coordinates swapped
// exactly.
//
//dtgp:index a=cell b=cell
func (r *refiner) swapEntries(a, b int32, rowA, rowB int64) {
	if rowA == rowB {
		cells := r.rowOf[rowA]
		ia, ib := -1, -1
		for i, x := range cells {
			if x == a {
				ia = i
			}
			if x == b {
				ib = i
			}
		}
		if ia >= 0 && ib >= 0 {
			cells[ia], cells[ib] = cells[ib], cells[ia]
		}
		return
	}
	for i, x := range r.rowOf[rowA] {
		if x == a {
			r.rowOf[rowA][i] = b
			break
		}
	}
	for i, x := range r.rowOf[rowB] {
		if x == b {
			r.rowOf[rowB][i] = a
			break
		}
	}
}

// optimalRegion returns the point minimising the cell's connected-net
// wirelength: the median of the bounding boxes of its nets computed
// without the cell itself.
//
//dtgp:index ci=cell
func (r *refiner) optimalRegion(ci int32) (geom.Point, bool) {
	d := r.d
	xs, ys := r.xs[:0], r.ys[:0]
	for _, pid := range d.Cells[ci].Pins {
		ni := d.Pins[pid].Net
		if ni < 0 {
			continue
		}
		lo := geom.Point{X: math.Inf(1), Y: math.Inf(1)}
		hi := geom.Point{X: math.Inf(-1), Y: math.Inf(-1)}
		n := 0
		for _, q := range d.Nets[ni].Pins {
			if d.Pins[q].Cell == ci {
				continue
			}
			p := d.PinPos(q)
			lo.X = math.Min(lo.X, p.X)
			lo.Y = math.Min(lo.Y, p.Y)
			hi.X = math.Max(hi.X, p.X)
			hi.Y = math.Max(hi.Y, p.Y)
			n++
		}
		if n == 0 {
			continue
		}
		xs = append(xs, lo.X, hi.X)
		ys = append(ys, lo.Y, hi.Y)
	}
	r.xs, r.ys = xs, ys
	if len(xs) == 0 {
		return geom.Point{}, false
	}
	sort.Float64s(xs)
	sort.Float64s(ys)
	return geom.Point{X: xs[len(xs)/2], Y: ys[len(ys)/2]}, true
}

// nearestCells returns up to k cells from the candidate list closest to p,
// nearest first, in the order a pdqsort of all candidates by distance puts
// them. When the k+1 smallest distances are distinct that order is the
// only sorted one, and one scan with a bounded insertion finds it; a tie
// among them falls back to the full sort, whose tie order is part of the
// result. The result aliases a refiner buffer and is valid until the next
// call.
//
//dtgp:index cands=[]cell
func (r *refiner) nearestCells(cands []int32, p geom.Point, k int) []cellDist {
	d := r.d
	ds := r.near[:0]
	for _, ci := range cands {
		ds = append(ds, cellDist{ci, d.Cells[ci].Center().ManhattanDist(p)})
	}
	r.near = ds
	if k > len(ds) {
		k = len(ds)
	}
	// top holds the k+1 smallest distances seen so far, ascending.
	top := r.top[:0]
	for _, c := range ds {
		if len(top) == k+1 {
			if c.dist >= top[k].dist {
				continue
			}
			top = top[:k]
		}
		i := len(top)
		top = append(top, c)
		for ; i > 0 && c.dist < top[i-1].dist; i-- {
			top[i] = top[i-1]
		}
		top[i] = c
	}
	r.top = top
	for i := 1; i < len(top); i++ {
		if top[i].dist == top[i-1].dist {
			// cmp < 0 exactly when a is nearer: the same pdqsort and tie
			// order as sort.Slice with the "<" less function.
			slices.SortFunc(ds, func(a, b cellDist) int {
				if a.dist < b.dist {
					return -1
				}
				return 0
			})
			top = ds
			break
		}
	}
	return top[:k]
}

// RefineTimingAware runs refinement with criticality-weighted wirelength:
// net weights w_e = 1 + α·criticality(e)^2 from an exact STA make swaps
// that shorten critical nets win even when raw HPWL would disagree — the
// incremental timing-driven detailed placement setting of the ICCAD 2015
// contest this paper evaluates on. Weights are restored afterwards.
//
//dtgp:index crit=net
func RefineTimingAware(d *netlist.Design, crit []float64, alpha float64, opts Options) (*Result, error) {
	if len(crit) != len(d.Nets) {
		return nil, fmt.Errorf("detailed: criticality has %d entries, want %d", len(crit), len(d.Nets))
	}
	saved := make([]float64, len(d.Nets))
	for ni := range d.Nets {
		saved[ni] = d.Nets[ni].Weight
		c := crit[ni]
		d.Nets[ni].Weight = saved[ni] * (1 + alpha*c*c)
	}
	defer func() {
		for ni := range d.Nets {
			d.Nets[ni].Weight = saved[ni]
		}
	}()
	return refine(d, opts, true)
}
