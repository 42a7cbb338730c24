package core

import (
	"math"
	"testing"

	"dtgp/internal/arena"
	"dtgp/internal/gen"
	"dtgp/internal/parallel"
	"dtgp/internal/timing"
)

// recomputeBackwardCellOut is the Eq. 12 backward without the candidate
// tape, kept as the reference the replay must match bit for bit: it walks
// the arcs again and re-evaluates every LUT, its partials and both LSE
// exponentials from the forward state.
func recomputeBackwardCellOut(t *Timer, pid int32) {
	g := t.G
	gamma := t.Opts.Gamma
	netID := g.D.Pins[pid].Net
	load := t.driverLoadOf(pid)
	eachCand := func(outTr timing.Transition, fn func(u int32, dl, tl float64)) {
		for ai := range g.ArcsInto[pid] {
			ar := &g.ArcsInto[pid][ai]
			dlut, tlut := delayTables(ar.Arc, outTr)
			for _, inTr := range inputTransitions(ar.Arc.Unate, outTr) {
				if inTr < 0 {
					continue
				}
				u := timing.TIdx(ar.FromPin, timing.Transition(inTr))
				if !t.Valid[u] {
					continue
				}
				fn(u, dlut.Eval(t.Slew[u], load), tlut.Eval(t.Slew[u], load))
			}
		}
	}
	for outTr := timing.Rise; outTr <= timing.Fall; outTr++ {
		v := timing.TIdx(pid, outTr)
		if !t.Valid[v] {
			continue
		}
		gat, gsl := t.gAT[v], t.gSlew[v]
		if gat == 0 && gsl == 0 {
			continue
		}
		atZ, slZ := t.atZ[v], t.slZ[v]
		if atZ == 0 || slZ == 0 {
			continue
		}
		// The LSE shifts, recomputed the way the forward takes them.
		atM, slM := math.Inf(-1), math.Inf(-1)
		eachCand(outTr, func(u int32, d, s float64) {
			if c := t.AT[u] + d; c > atM {
				atM = c
			}
			if s > slM {
				slM = s
			}
		})
		for ai := range g.ArcsInto[pid] {
			ar := &g.ArcsInto[pid][ai]
			dl, tl := delayTables(ar.Arc, outTr)
			for _, inTr := range inputTransitions(ar.Arc.Unate, outTr) {
				if inTr < 0 {
					continue
				}
				u := timing.TIdx(ar.FromPin, timing.Transition(inTr))
				if !t.Valid[u] {
					continue
				}
				dv, dDds, dDdl := dl.EvalGrad(t.Slew[u], load)
				sv, dSds, dSdl := tl.EvalGrad(t.Slew[u], load)
				wAT := math.Exp((t.AT[u]+dv-atM)/gamma) / atZ
				wSL := math.Exp((sv-slM)/gamma) / slZ
				gA := wAT * gat
				t.gAT[u] += gA
				gS := wSL * gsl
				t.gSlew[u] += dDds*gA + dSds*gS
				if netID >= 0 {
					t.gLoadRoot[netID] += dDdl*gA + dSdl*gS
				}
			}
		}
	}
}

// useRecomputeBackward rebinds a timer's reverse-sweep kernel so cell
// groups run the reference backward instead of the tape replay.
func useRecomputeBackward(t *Timer) {
	t.bwdFn = func(i int) {
		grp := &t.curBwd[i]
		for _, pid := range grp.pins {
			if grp.isNet {
				t.backwardNetSink(pid)
			} else {
				recomputeBackwardCellOut(t, pid)
			}
		}
	}
}

func sameBits(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestTapeReplayMatchesRecompute: the tape replay and the recomputing
// backward give bit-identical gradients — per cell, per tnode and per net
// load root — over a dozen evaluations with moving cells, which take the
// timer through its first build, lazy ε-refreshes and the refresh fence.
// Both storage paths (arena and heap) and both schedules (pool and
// ForceSerial) are covered.
func TestTapeReplayMatchesRecompute(t *testing.T) {
	for _, serial := range []bool{false, true} {
		for _, withArena := range []bool{false, true} {
			name := map[bool]string{false: "heap", true: "arena"}[withArena]
			if serial {
				name += "-serial"
			}
			t.Run(name, func(t *testing.T) {
				parallel.ForceSerial(serial)
				defer parallel.ForceSerial(false)
				build := func() *Timer {
					d, con, err := gen.Generate(gen.DefaultParams("core-tape", 300, 43))
					if err != nil {
						t.Fatal(err)
					}
					opts := DefaultOptions()
					if withArena {
						a := arena.New(1 << 20)
						d.Compact(a)
						opts.Arena = a
					}
					g, err := timing.NewGraph(d, con)
					if err != nil {
						t.Fatal(err)
					}
					return NewTimer(g, opts)
				}
				tape, ref := build(), build()
				useRecomputeBackward(ref)
				checked := 0
				for it := 0; it < 12; it++ {
					ft := tape.Evaluate(0.01, 0.0001)
					fr := ref.Evaluate(0.01, 0.0001)
					if math.Float64bits(ft) != math.Float64bits(fr) {
						t.Fatalf("iter %d: objective %v (tape) vs %v (recompute)", it, ft, fr)
					}
					for _, c := range []struct {
						name string
						a, b []float64
					}{
						{"CellGradX", tape.CellGradX, ref.CellGradX},
						{"CellGradY", tape.CellGradY, ref.CellGradY},
						{"gAT", tape.gAT, ref.gAT},
						{"gSlew", tape.gSlew, ref.gSlew},
						{"gLoadRoot", tape.gLoadRoot, ref.gLoadRoot},
					} {
						if i := sameBits(c.a, c.b); i >= 0 {
							t.Fatalf("iter %d: %s differs at %d (len %d vs %d)", it, c.name, i, len(c.a), len(c.b))
						}
					}
					for _, gx := range tape.CellGradX {
						if gx != 0 {
							checked++
							break
						}
					}
					moveCells(tape.G.D, it)
					moveCells(ref.G.D, it)
				}
				if checked == 0 {
					t.Fatal("no evaluation produced a non-zero gradient; the comparison is vacuous")
				}
			})
		}
	}
}
