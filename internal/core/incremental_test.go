package core

import (
	"math"
	"math/rand"
	"testing"
)

// exactIncOptions is the incremental configuration with every damping
// threshold at its exact setting: any bitwise movement refreshes and
// refreshed geometry only ever slides (no per-net rebuild, no fence). Under
// it the ε-refresh must reproduce the full refresh, because skipped nets are
// exactly the nets whose refresh would read unchanged pin positions.
func exactIncOptions(gamma float64) Options {
	return Options{
		Gamma:           gamma,
		SteinerPeriod:   1 << 30,
		Incremental:     true,
		RefreshEps:      0,
		DistortionLimit: math.Inf(1),
		FencePeriod:     1 << 30,
	}
}

// TestIncrementalMatchesFullRefresh is the equivalence property test: across
// 50 random small-step iterations, incremental Evaluate must match a forced
// full refresh within 1e-9 on the objective, TNS_γ/WNS_γ and every cell
// gradient. Both timers share one design, and both are configured to never
// rebuild topology so they stay on the same interconnect model.
func TestIncrementalMatchesFullRefresh(t *testing.T) {
	g := makeTestBed(t, 400, 31)
	d := g.D
	full := NewTimer(g, Options{Gamma: 80, SteinerPeriod: 1 << 30})
	inc := NewTimer(g, exactIncOptions(80))
	rng := rand.New(rand.NewSource(31))
	const iters = 50
	for it := 0; it < iters; it++ {
		for moved := 0; moved < 10; {
			ci := int32(rng.Intn(len(d.Cells)))
			if !d.Cells[ci].Movable() {
				continue
			}
			d.Cells[ci].Pos.X += rng.NormFloat64() * 5
			d.Cells[ci].Pos.Y += rng.NormFloat64() * 5
			moved++
		}
		fFull := full.Evaluate(0.01, 0.0001)
		fInc := inc.Evaluate(0.01, 0.0001)
		if math.Abs(fFull-fInc) > 1e-9 {
			t.Fatalf("iter %d: objective diverged: full %v inc %v", it, fFull, fInc)
		}
		if math.Abs(full.SmTNS-inc.SmTNS) > 1e-9 || math.Abs(full.SmWNS-inc.SmWNS) > 1e-9 {
			t.Fatalf("iter %d: smoothed metrics diverged: TNS %v vs %v, WNS %v vs %v",
				it, full.SmTNS, inc.SmTNS, full.SmWNS, inc.SmWNS)
		}
		if math.Abs(full.EstTNS-inc.EstTNS) > 1e-9 || math.Abs(full.EstWNS-inc.EstWNS) > 1e-9 {
			t.Fatalf("iter %d: hard estimates diverged: TNS %v vs %v, WNS %v vs %v",
				it, full.EstTNS, inc.EstTNS, full.EstWNS, inc.EstWNS)
		}
		for ci := range full.CellGradX {
			if math.Abs(full.CellGradX[ci]-inc.CellGradX[ci]) > 1e-9 ||
				math.Abs(full.CellGradY[ci]-inc.CellGradY[ci]) > 1e-9 {
				t.Fatalf("iter %d: gradient diverged at cell %d: (%v,%v) vs (%v,%v)", it, ci,
					full.CellGradX[ci], full.CellGradY[ci], inc.CellGradX[ci], inc.CellGradY[ci])
			}
		}
	}
}

// TestIncrementalFenceMatchesRebuild checks the fence path: FencePeriod 1
// degenerates incremental mode into "rebuild everything every evaluation",
// which must be bit-identical to the legacy timer at SteinerPeriod 1.
func TestIncrementalFenceMatchesRebuild(t *testing.T) {
	g := makeTestBed(t, 300, 33)
	d := g.D
	legacy := NewTimer(g, Options{Gamma: 100, SteinerPeriod: 1})
	fenced := NewTimer(g, Options{Gamma: 100, Incremental: true, FencePeriod: 1})
	rng := rand.New(rand.NewSource(33))
	for it := 0; it < 8; it++ {
		for moved := 0; moved < 20; {
			ci := int32(rng.Intn(len(d.Cells)))
			if !d.Cells[ci].Movable() {
				continue
			}
			d.Cells[ci].Pos.X += rng.NormFloat64() * 200
			d.Cells[ci].Pos.Y += rng.NormFloat64() * 200
			moved++
		}
		f1 := legacy.Evaluate(0.01, 0.0001)
		f2 := fenced.Evaluate(0.01, 0.0001)
		if f1 != f2 {
			t.Fatalf("iter %d: fenced objective %v != legacy %v", it, f2, f1)
		}
		for ci := range legacy.CellGradX {
			if legacy.CellGradX[ci] != fenced.CellGradX[ci] || legacy.CellGradY[ci] != fenced.CellGradY[ci] {
				t.Fatalf("iter %d: fenced gradient differs at cell %d", it, ci)
			}
		}
	}
}

// TestIncrementalEvaluateSteadyStateAllocFree is the dirty-tracking alloc
// guard: once warm, moving a handful of cells and re-evaluating must not
// allocate.
func TestIncrementalEvaluateSteadyStateAllocFree(t *testing.T) {
	g := makeTestBed(t, 300, 35)
	d := g.D
	tm := NewTimer(g, Options{Gamma: 50, Incremental: true, RefreshEps: 0.25, FencePeriod: 1 << 30})
	var movable []int32
	for ci := range d.Cells {
		if d.Cells[ci].Movable() {
			movable = append(movable, int32(ci))
		}
		if len(movable) == 8 {
			break
		}
	}
	for i := 0; i < 3; i++ {
		tm.Evaluate(0.01, 0.0001)
	}
	sign := 1.0
	allocs := testing.AllocsPerRun(10, func() {
		for _, ci := range movable {
			d.Cells[ci].Pos.X += sign * 2
			d.Cells[ci].Pos.Y -= sign * 2
		}
		sign = -sign
		tm.Evaluate(0.01, 0.0001)
	})
	if allocs != 0 {
		t.Fatalf("incremental Evaluate allocates %v per run in steady state", allocs)
	}
}
