package detailed

import (
	"math"
	"sort"
	"testing"

	"dtgp/internal/gen"
	"dtgp/internal/geom"
	"dtgp/internal/legalize"
	"dtgp/internal/netlist"
	"dtgp/internal/netweight"
	"dtgp/internal/timing"
)

func TestRefineReducesHPWL(t *testing.T) {
	d, _, err := gen.Generate(gen.DefaultParams("dp", 600, 13))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := legalize.Legalize(d); err != nil {
		t.Fatal(err)
	}
	before := d.HPWL()
	res, err := Refine(d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.HPWLAfter > res.HPWLBefore {
		t.Errorf("refinement increased HPWL: %v → %v", res.HPWLBefore, res.HPWLAfter)
	}
	if res.HPWLBefore != before {
		t.Errorf("before-HPWL wrong: %v vs %v", res.HPWLBefore, before)
	}
	if res.AdjacentSwaps+res.GlobalSwaps == 0 {
		t.Error("no improving swaps found on a greedy-legalized design")
	}
	if err := legalize.Check(d); err != nil {
		t.Fatalf("refinement broke legality: %v", err)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("refinement corrupted the netlist: %v", err)
	}
}

func TestRefineIdempotentAtFixpoint(t *testing.T) {
	d, _, err := gen.Generate(gen.DefaultParams("dp", 300, 14))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := legalize.Legalize(d); err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Passes = 10
	res1, err := Refine(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	// A second run from the fixpoint should find (almost) nothing.
	res2, err := Refine(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res2.AdjacentSwaps > res1.AdjacentSwaps/4+2 {
		t.Errorf("second refinement still found %d adjacent swaps", res2.AdjacentSwaps)
	}
	if res2.HPWLAfter > res2.HPWLBefore {
		t.Error("second refinement increased HPWL")
	}
}

func TestRefineRejectsIllegalInput(t *testing.T) {
	d, _, err := gen.Generate(gen.DefaultParams("dp", 200, 15))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := legalize.Legalize(d); err != nil {
		t.Fatal(err)
	}
	// Introduce an overlap.
	var a, b int = -1, -1
	for ci := range d.Cells {
		if d.Cells[ci].Movable() {
			if a < 0 {
				a = ci
			} else {
				b = ci
				break
			}
		}
	}
	d.Cells[b].Pos = d.Cells[a].Pos
	if _, err := Refine(d, DefaultOptions()); err == nil {
		t.Error("overlapping input accepted")
	}
}

func TestRefineDeterministic(t *testing.T) {
	run := func() float64 {
		d, _, err := gen.Generate(gen.DefaultParams("dp", 400, 16))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := legalize.Legalize(d); err != nil {
			t.Fatal(err)
		}
		res, err := Refine(d, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return res.HPWLAfter
	}
	if a, b := run(), run(); a != b {
		t.Errorf("nondeterministic refinement: %v vs %v", a, b)
	}
}

func TestRefineTimingAware(t *testing.T) {
	d, con, err := gen.Generate(gen.DefaultParams("dp", 600, 17))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := legalize.Legalize(d); err != nil {
		t.Fatal(err)
	}
	g, err := timing.NewGraph(d, con)
	if err != nil {
		t.Fatal(err)
	}
	res0 := timing.Analyze(g)
	con.Period = 0.8 * res0.CriticalDelay()
	g, err = timing.NewGraph(d, con)
	if err != nil {
		t.Fatal(err)
	}
	sta := timing.Analyze(g)
	crit := netweight.Criticality(d, sta)

	savedWeights := make([]float64, len(d.Nets))
	for ni := range d.Nets {
		savedWeights[ni] = d.Nets[ni].Weight
	}
	res, err := RefineTimingAware(d, crit, 4, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Weights restored.
	for ni := range d.Nets {
		if d.Nets[ni].Weight != savedWeights[ni] {
			t.Fatal("net weights not restored")
		}
	}
	// Legality preserved, some swaps happened.
	if err := legalize.Check(d); err != nil {
		t.Fatalf("timing-aware refinement broke legality: %v", err)
	}
	if res.AdjacentSwaps+res.GlobalSwaps == 0 {
		t.Error("no swaps found")
	}
	// Timing must not regress badly (usually improves; bound the change).
	sta2 := timing.Analyze(g)
	if sta2.WNS < sta.WNS-100 {
		t.Errorf("timing-aware refinement regressed WNS: %v → %v", sta.WNS, sta2.WNS)
	}
}

func TestRefineTimingAwareValidation(t *testing.T) {
	d, _, err := gen.Generate(gen.DefaultParams("dp", 100, 18))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RefineTimingAware(d, []float64{1}, 4, DefaultOptions()); err == nil {
		t.Error("wrong criticality length accepted")
	}
}

func TestRefineTimingIncremental(t *testing.T) {
	d, con, err := gen.Generate(gen.DefaultParams("dpt", 800, 21))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := legalize.Legalize(d); err != nil {
		t.Fatal(err)
	}
	g, err := timing.NewGraph(d, con)
	if err != nil {
		t.Fatal(err)
	}
	res0 := timing.Analyze(g)
	con.Period = 0.8 * res0.CriticalDelay()
	g, err = timing.NewGraph(d, con)
	if err != nil {
		t.Fatal(err)
	}

	res, err := RefineTiming(d, g, DefaultTimingOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Tried == 0 {
		t.Fatal("no swaps tried on a violating design")
	}
	// The acceptance criterion guarantees a monotone score: the combined
	// metric must not regress.
	s0 := res.TNSBefore + 20*res.WNSBefore
	s1 := res.TNSAfter + 20*res.WNSAfter
	if s1 < s0-1e-6 {
		t.Errorf("timing-driven refinement regressed: score %v → %v", s0, s1)
	}
	if err := legalize.Check(d); err != nil {
		t.Fatalf("broke legality: %v", err)
	}
	// Result must agree with a from-scratch STA (the function itself
	// cross-checks, but verify the reported numbers too).
	final := timing.Analyze(g)
	if final.WNS != res.WNSAfter && mathAbs(final.WNS-res.WNSAfter) > 1e-3 {
		t.Errorf("reported WNS %v vs scratch %v", res.WNSAfter, final.WNS)
	}
}

func mathAbs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestRefineTimingWrongGraph(t *testing.T) {
	d1, con1, err := gen.Generate(gen.DefaultParams("a", 100, 22))
	if err != nil {
		t.Fatal(err)
	}
	d2, _, err := gen.Generate(gen.DefaultParams("b", 100, 23))
	if err != nil {
		t.Fatal(err)
	}
	g1, err := timing.NewGraph(d1, con1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RefineTiming(d2, g1, DefaultTimingOptions()); err == nil {
		t.Error("mismatched design/graph accepted")
	}
}

// refineReference is Refine with the map-set netsCost and the
// sort.Slice-on-a-fresh-slice nearestCells it used before the reused
// buffers: the golden the constant-factor rewrite must reproduce exactly.
func refineReference(d *netlist.Design, opts Options) (*Result, error) {
	r := &refiner{d: d}
	if err := r.init(); err != nil {
		return nil, err
	}
	netsCost := func(cells ...int32) float64 {
		seen := map[int32]bool{}
		total := 0.0
		for _, ci := range cells {
			for _, pid := range d.Cells[ci].Pins {
				ni := d.Pins[pid].Net
				if ni < 0 || seen[ni] {
					continue
				}
				seen[ni] = true
				total += d.NetHPWL(ni)
			}
		}
		return total
	}
	nearestCells := func(cands []int32, p geom.Point, k int) []int32 {
		type dc struct {
			ci   int32
			dist float64
		}
		ds := make([]dc, 0, len(cands))
		for _, ci := range cands {
			ds = append(ds, dc{ci, d.Cells[ci].Center().ManhattanDist(p)})
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i].dist < ds[j].dist })
		if k > len(ds) {
			k = len(ds)
		}
		out := make([]int32, k)
		for i := 0; i < k; i++ {
			out[i] = ds[i].ci
		}
		return out
	}
	adjacent := func() int {
		swaps := 0
		for _, k := range r.rowKeys {
			cells := r.rowOf[k]
			for i := 0; i+1 < len(cells); i++ {
				a, b := cells[i], cells[i+1]
				ca, cb := &d.Cells[a], &d.Cells[b]
				gap := cb.Pos.X - (ca.Pos.X + ca.W)
				before := netsCost(a, b)
				ax, bx := ca.Pos.X, cb.Pos.X
				cb.Pos.X = ax
				ca.Pos.X = ax + cb.W + gap
				if after := netsCost(a, b); after < before-1e-9 {
					cells[i], cells[i+1] = b, a
					swaps++
				} else {
					ca.Pos.X, cb.Pos.X = ax, bx
				}
			}
		}
		return swaps
	}
	global := func(candidates int) int {
		byWidth := map[int64][]int32{}
		wk := func(w float64) int64 { return int64(math.Round(w * 1e3)) }
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
				if !ok || ca.Center().ManhattanDist(opt) < 2*ca.H {
					continue
				}
				best, bestGain, tried := int32(-1), 1e-9, 0
				for _, b := range nearestCells(byWidth[wk(ca.W)], opt, candidates*4) {
					if b == a || tried >= candidates {
						continue
					}
					tried++
					cb := &d.Cells[b]
					before := netsCost(a, b)
					ca.Pos, cb.Pos = cb.Pos, ca.Pos
					after := netsCost(a, b)
					ca.Pos, cb.Pos = cb.Pos, ca.Pos
					if gain := before - after; gain > bestGain {
						bestGain, best = gain, b
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
	res := &Result{HPWLBefore: d.HPWL()}
	for pass := 0; pass < opts.Passes; pass++ {
		adj, glob := adjacent(), global(opts.GlobalSwapCandidates)
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

// TestRefineMatchesReference: Refine reproduces the reference refinement
// exactly — every cell position bit for bit, the HPWL and the swap counts.
func TestRefineMatchesReference(t *testing.T) {
	d0, _, err := gen.Generate(gen.DefaultParams("dp-golden", 1500, 19))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := legalize.Legalize(d0); err != nil {
		t.Fatal(err)
	}
	dNew, dRef := d0.Clone(), d0.Clone()
	got, err := Refine(dNew, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, err := refineReference(dRef, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Fatalf("result %+v, reference %+v", *got, *want)
	}
	if got.GlobalSwaps == 0 || got.AdjacentSwaps == 0 {
		t.Fatalf("reference design exercises too little: %+v", *got)
	}
	for ci := range dNew.Cells {
		a, b := dNew.Cells[ci].Pos, dRef.Cells[ci].Pos
		if math.Float64bits(a.X) != math.Float64bits(b.X) || math.Float64bits(a.Y) != math.Float64bits(b.Y) {
			t.Fatalf("cell %d at %v, reference %v", ci, a, b)
		}
	}
}
