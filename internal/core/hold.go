package core

import (
	"math"

	"dtgp/internal/rctree"
	"dtgp/internal/timing"
)

// Differentiable hold (early-mode) analysis — an extension demonstrating
// the paper's claim that the framework "is widely applicable to different
// STA models" (§5): the same machinery with min-aggregation (soft-min via
// −LSE(−·)) propagates earliest arrivals, and a smoothed total hold slack
// THS_γ = Σ softneg(slack_hold) becomes one more differentiable objective
// term.
//
// Hold slack at a register data pin D (ideal clock, same-edge check):
//
//	slack_hold(D) = AT_early(D) − hold(clockSlew, Slew_early(D))
//
// Backward gradients flow through the identical Elmore/net/cell operators;
// early and late contributions accumulate into the shared per-net
// ∂Delay/∂Impulse²/∂Load accumulators before the Eq. 8 sweep.

// holdState carries the early-mode arrays (allocated on first use).
type holdState struct {
	// AT/Slew are the earliest arrival / fastest slew (smoothed); HardAT
	// tracks the exact min alongside.
	AT, Slew []float64 //dtgp:index domain=tnode
	Valid    []bool    //dtgp:index domain=tnode
	HardAT   []float64 //dtgp:index domain=tnode
	// Stored soft-min partition state (of the negated candidates).
	atMax, atZ, slMax, slZ []float64 //dtgp:index domain=tnode
	gAT, gSlew             []float64 //dtgp:index domain=tnode
}

func (t *Timer) ensureHold() {
	if t.hold != nil {
		return
	}
	n2 := 2 * len(t.G.D.Pins)
	t.hold = &holdState{
		AT:     make([]float64, n2),
		Slew:   make([]float64, n2),
		Valid:  make([]bool, n2),
		HardAT: make([]float64, n2),
		atMax:  make([]float64, n2),
		atZ:    make([]float64, n2),
		slMax:  make([]float64, n2),
		slZ:    make([]float64, n2),
		gAT:    make([]float64, n2),
		gSlew:  make([]float64, n2),
	}
}

// EvaluateHold runs a forward+backward pass optimising setup TNS/WNS
// (weights t1, t2 — Eq. 6) plus smoothed total hold slack (weight t3).
// Gradients accumulate into CellGradX/CellGradY; SmTHS/EstTHS report the
// hold objective.
//
//dtgp:hotpath
func (t *Timer) EvaluateHold(t1, t2, t3 float64) float64 {
	t.refreshNets()
	t.forward()
	t.ensureHold()
	t.forwardEarly()
	return t.backwardWithHold(t1, t2, t3)
}

// forwardEarly propagates earliest arrivals and fastest slews with
// soft-min aggregation at cell outputs.
//
//dtgp:hotpath
func (t *Timer) forwardEarly() {
	g := t.G
	h := t.hold
	pinf := math.Inf(1)
	for i := range h.AT {
		h.AT[i] = pinf
		h.HardAT[i] = pinf
		h.Slew[i] = 0
		h.Valid[i] = false
		h.atZ[i] = 0
		h.slZ[i] = 0
	}
	for k, pid := range g.Starts {
		at, slew := g.StartAT[k], g.StartSlew[k]
		for tr := timing.Rise; tr <= timing.Fall; tr++ {
			ti := timing.TIdx(pid, tr)
			h.AT[ti], h.HardAT[ti] = at, at
			h.Slew[ti] = slew
			h.Valid[ti] = true
		}
	}
	for _, level := range g.Levels {
		level := level
		for _, pid := range level {
			switch {
			case g.IsStart[pid]:
			case g.IsNetSink[pid]:
				t.forwardEarlyNetSink(pid)
			case g.IsCellOut[pid]:
				t.forwardEarlyCellOut(pid)
			}
		}
	}
}

// forwardEarlyNetSink propagates early-mode arrival and slew across a net
// edge, with the early derate on the Elmore delay. HardAT mirrors the
// non-smoothed arrival and is excluded from the differentiable surface.
//
//dtgp:hotpath
//dtgp:forward(netprop-early)
//dtgp:nondiff(HardAT)
//dtgp:index pid=pin
func (t *Timer) forwardEarlyNetSink(pid int32) {
	g := t.G
	ni := g.NetOfSink[pid]
	if ni < 0 || t.Nets[ni].Tree == nil {
		return
	}
	h := t.hold
	ns := &t.Nets[ni]
	driver := g.D.Nets[ni].Driver
	k := int(g.PosOfSink[pid])
	delay := ns.SinkDelay(k) * t.derateEarly
	imp := ns.SinkImpulse(k)
	for tr := timing.Rise; tr <= timing.Fall; tr++ {
		u, v := timing.TIdx(driver, tr), timing.TIdx(pid, tr)
		if !h.Valid[u] {
			continue
		}
		h.AT[v] = h.AT[u] + delay
		h.HardAT[v] = h.HardAT[u] + delay
		h.Slew[v] = math.Sqrt(h.Slew[u]*h.Slew[u] + imp*imp)
		h.Valid[v] = true
	}
}

// forwardEarlyCellOut aggregates candidates with soft-min: stores the LSE
// state of the negated values so backward recovers the weights. HardAT is
// the non-smoothed bookkeeping channel and carries no adjoint.
//
//dtgp:hotpath
//dtgp:forward(cellarc-early)
//dtgp:nondiff(HardAT)
//dtgp:index pid=pin
func (t *Timer) forwardEarlyCellOut(pid int32) {
	h := t.hold
	gamma := t.Opts.Gamma
	load := t.earlyLoad(pid)
	for outTr := timing.Rise; outTr <= timing.Fall; outTr++ {
		v := timing.TIdx(pid, outTr)
		// max of negated = −min.
		atM, slM := math.Inf(-1), math.Inf(-1)
		hardBest := math.Inf(1)
		any := false
		t.eachEarlyCandidate(pid, outTr, load, func(u int32, at, slew float64) {
			any = true
			if -at > atM {
				atM = -at
			}
			if -slew > slM {
				slM = -slew
			}
			if hd := h.HardAT[u] + (at - h.AT[u]); hd < hardBest {
				hardBest = hd
			}
		})
		if !any {
			continue
		}
		var atZ, slZ float64
		t.eachEarlyCandidate(pid, outTr, load, func(u int32, at, slew float64) {
			atZ += math.Exp((-at - atM) / gamma)
			slZ += math.Exp((-slew - slM) / gamma)
		})
		h.AT[v] = -(atM + gamma*math.Log(atZ))
		h.Slew[v] = -(slM + gamma*math.Log(slZ))
		h.HardAT[v] = hardBest
		h.atMax[v], h.atZ[v] = atM, atZ
		h.slMax[v], h.slZ[v] = slM, slZ
		h.Valid[v] = true
	}
}

// earlyLoad returns the driver load on an output pin's net, from the
// per-net column the late forward gathered (0 for an unconnected pin). Its
// early-mode adjoint accumulates into gLoadRootEarly, which Elmore's
// backward then chains like gLoadRoot.
//
//dtgp:hotpath
//dtgp:index pid=pin
func (t *Timer) earlyLoad(pid int32) float64 {
	if net := t.G.D.Pins[pid].Net; net >= 0 {
		return t.loadRoot[net]
	}
	return 0
}

// eachEarlyCandidate visits the early-mode candidates of an output
// transition: each valid (arc, input transition) with its early-derated
// arrival and its slew.
//
//dtgp:hotpath
//dtgp:index pid=pin
func (t *Timer) eachEarlyCandidate(pid int32, outTr timing.Transition, load float64, fn func(u int32, at, slew float64)) {
	g := t.G
	h := t.hold
	for ai := range g.ArcsInto[pid] {
		ar := &g.ArcsInto[pid][ai]
		dl, tl := timing.DelayTable(ar.Arc, outTr)
		for _, inTr := range timing.ArcCombos(ar.Arc.Unate, outTr) {
			if inTr < 0 {
				continue
			}
			u := timing.TIdx(ar.FromPin, timing.Transition(inTr))
			if !h.Valid[u] {
				continue
			}
			dv := dl.Eval(h.Slew[u], load) * t.derateEarly
			sv := tl.Eval(h.Slew[u], load)
			fn(u, h.AT[u]+dv, sv)
		}
	}
}

// SmTHS and EstTHS report the smoothed / hard total hold slack of the last
// EvaluateHold call.
//
//dtgp:hotpath
func (t *Timer) holdObjective(t3 float64, seed bool) float64 {
	g := t.G
	h := t.hold
	gamma := t.Opts.Gamma
	smTHS, estTHS := 0.0, 0.0
	for ei := range g.Endpoints {
		ep := &g.Endpoints[ei]
		if ep.Kind != timing.EndFFData || ep.Hold == nil {
			continue
		}
		var s [2]float64
		var ok [2]bool
		for tr := timing.Rise; tr <= timing.Fall; tr++ {
			ti := timing.TIdx(ep.Pin, tr)
			if !h.Valid[ti] {
				continue
			}
			lut := timing.ConstraintTable(ep.Hold.Arc, tr)
			s[tr] = h.AT[ti] - lut.Eval(t.clockSlew, h.Slew[ti])
			ok[tr] = true
		}
		var sEp float64
		var wTr [2]float64
		switch {
		case ok[0] && ok[1]:
			sEp, wTr = SoftMin2Grad(gamma, s[0], s[1])
		case ok[0]:
			sEp, wTr[0] = s[0], 1
		case ok[1]:
			sEp, wTr[1] = s[1], 1
		default:
			continue
		}
		sn, dsn := SoftNegGrad(gamma, sEp)
		smTHS += sn
		// Hard estimate from hard early arrivals.
		hard := math.Inf(1)
		for tr := timing.Rise; tr <= timing.Fall; tr++ {
			if !ok[tr] {
				continue
			}
			ti := timing.TIdx(ep.Pin, tr)
			lut := timing.ConstraintTable(ep.Hold.Arc, tr)
			if v := h.HardAT[ti] - lut.Eval(t.clockSlew, h.Slew[ti]); v < hard {
				hard = v
			}
		}
		if hard < 0 {
			estTHS += hard
		}
		if seed {
			dfds := -t3 * dsn // f includes −t3·THS_γ
			for tr := timing.Rise; tr <= timing.Fall; tr++ {
				if !ok[tr] {
					continue
				}
				ti := timing.TIdx(ep.Pin, tr)
				dfdsTr := dfds * wTr[tr]
				// slack = AT_early − hold(clockSlew, Slew_early).
				h.gAT[ti] += dfdsTr
				lut := timing.ConstraintTable(ep.Hold.Arc, tr)
				_, _, dHdS := lut.EvalGrad(t.clockSlew, h.Slew[ti])
				h.gSlew[ti] -= dHdS * dfdsTr
			}
		}
	}
	t.SmTHS, t.EstTHS = smTHS, estTHS
	return -t3 * smTHS
}

// backwardWithHold is backward() extended with the early-mode chain.
//
//dtgp:hotpath
func (t *Timer) backwardWithHold(t1, t2, t3 float64) float64 {
	h := t.hold
	for i := range h.gAT {
		h.gAT[i] = 0
		h.gSlew[i] = 0
	}
	// The late backward zeroes and fills the shared per-net accumulators
	// and CellGrad; run it first, then add the hold chain on top.
	f := t.backward(t1, t2)
	if t3 == 0 {
		t.SmTHS, t.EstTHS = 0, 0
		return f
	}
	// Allocate/zero the early accumulators (the late pass has consumed the
	// shared ones, so hold keeps its own set).
	if t.gDelayNodeEarly == nil {
		t.gDelayNodeEarly = make([][]float64, len(t.G.D.Nets))
		t.gImpSqEarly = make([][]float64, len(t.G.D.Nets))
		t.gLoadRootEarly = make([]float64, len(t.G.D.Nets))
	}
	for ni := range t.Nets {
		t.gLoadRootEarly[ni] = 0
		ns := &t.Nets[ni]
		if ns.Tree == nil {
			t.gDelayNodeEarly[ni] = nil
			t.gImpSqEarly[ni] = nil
			continue
		}
		n := ns.Tree.NumNodes()
		if cap(t.gDelayNodeEarly[ni]) < n {
			t.gDelayNodeEarly[ni] = make([]float64, n)
			t.gImpSqEarly[ni] = make([]float64, n)
		} else {
			t.gDelayNodeEarly[ni] = t.gDelayNodeEarly[ni][:n]
			t.gImpSqEarly[ni] = t.gImpSqEarly[ni][:n]
			for j := 0; j < n; j++ {
				t.gDelayNodeEarly[ni][j] = 0
				t.gImpSqEarly[ni][j] = 0
			}
		}
	}
	f += t.holdObjective(t3, true)

	// Net groups precede cell groups within each level's bwdGroups, so the
	// two passes below visit pins in exactly the order the old jagged
	// netGroups/cellGroups iteration did.
	g := t.G
	for li := len(g.Levels) - 1; li >= 0; li-- {
		for gi := range t.bwdGroups[li] {
			grp := &t.bwdGroups[li][gi]
			if !grp.isNet {
				continue
			}
			for _, pid := range grp.pins {
				t.backwardEarlyNetSink(pid)
			}
		}
		for gi := range t.bwdGroups[li] {
			grp := &t.bwdGroups[li][gi]
			if grp.isNet {
				continue
			}
			for _, pid := range grp.pins {
				t.backwardEarlyCellOut(pid)
			}
		}
	}

	// Elmore backward for the *additional* early contributions: the late
	// pass already consumed the accumulators, so run a second sweep over
	// nets whose early gradients are non-zero.
	d := g.D
	for ni := range t.Nets {
		ns := &t.Nets[ni]
		if ns.Tree == nil {
			continue
		}
		if t.gLoadRootEarly[ni] == 0 && allZero(t.gDelayNodeEarly[ni]) && allZero(t.gImpSqEarly[ni]) {
			continue
		}
		// The late pass has already redistributed its per-net gradients, so
		// the shared buffers are free for reuse here.
		if t.netGrads[ni] == nil {
			t.netGrads[ni] = &rctree.Grad{}
		}
		gr := t.netGrads[ni]
		ns.RC.BackwardInto(gr, t.gDelayNodeEarly[ni], t.gImpSqEarly[ni], t.gLoadRootEarly[ni])
		net := &d.Nets[ni]
		tree := ns.Tree
		for j := 0; j < tree.NumNodes(); j++ {
			if gr.X[j] != 0 {
				pid := net.Pins[tree.XPin[j]]
				t.CellGradX[d.Pins[pid].Cell] += gr.X[j]
			}
			if gr.Y[j] != 0 {
				pid := net.Pins[tree.YPin[j]]
				t.CellGradY[d.Pins[pid].Cell] += gr.Y[j]
			}
		}
	}
	return f
}

//dtgp:hotpath
//dtgp:backward(netprop-early)
//dtgp:index pid=pin
func (t *Timer) backwardEarlyNetSink(pid int32) {
	g := t.G
	ni := g.NetOfSink[pid]
	if ni < 0 || t.Nets[ni].Tree == nil {
		return
	}
	h := t.hold
	ns := &t.Nets[ni]
	driver := g.D.Nets[ni].Driver
	node := ns.Node[g.PosOfSink[pid]]
	for tr := timing.Rise; tr <= timing.Fall; tr++ {
		u, v := timing.TIdx(driver, tr), timing.TIdx(pid, tr)
		if !h.Valid[v] || !h.Valid[u] {
			continue
		}
		gat, gsl := h.gAT[v], h.gSlew[v]
		if gat == 0 && gsl == 0 {
			continue
		}
		h.gAT[u] += gat
		t.gDelayNodeEarly[ni][node] += gat * t.derateEarly
		if sv := h.Slew[v]; sv > 1e-9 {
			h.gSlew[u] += h.Slew[u] / sv * gsl
			t.gImpSqEarly[ni][node] += gsl / (2 * sv)
		}
	}
}

//dtgp:hotpath
//dtgp:backward(cellarc-early)
//dtgp:index pid=pin
func (t *Timer) backwardEarlyCellOut(pid int32) {
	h := t.hold
	gamma := t.Opts.Gamma
	g := t.G
	netID := g.D.Pins[pid].Net
	load := t.earlyLoad(pid)
	for outTr := timing.Rise; outTr <= timing.Fall; outTr++ {
		v := timing.TIdx(pid, outTr)
		if !h.Valid[v] {
			continue
		}
		gat, gsl := h.gAT[v], h.gSlew[v]
		if gat == 0 && gsl == 0 {
			continue
		}
		atM, atZ := h.atMax[v], h.atZ[v]
		slM, slZ := h.slMax[v], h.slZ[v]
		if atZ == 0 || slZ == 0 {
			continue
		}
		for ai := range g.ArcsInto[pid] {
			ar := &g.ArcsInto[pid][ai]
			dl, tl := timing.DelayTable(ar.Arc, outTr)
			for _, inTr := range timing.ArcCombos(ar.Arc.Unate, outTr) {
				if inTr < 0 {
					continue
				}
				u := timing.TIdx(ar.FromPin, timing.Transition(inTr))
				if !h.Valid[u] {
					continue
				}
				dv, dDds, dDdl := dl.EvalGrad(h.Slew[u], load)
				dv, dDds, dDdl = dv*t.derateEarly, dDds*t.derateEarly, dDdl*t.derateEarly
				sv, dSds, dSdl := tl.EvalGrad(h.Slew[u], load)
				// Soft-min weights: ∂(−LSE(−·))/∂cand = softmax weight of
				// the negated candidate.
				wAT := math.Exp((-(h.AT[u]+dv)-atM)/gamma) / atZ
				wSL := math.Exp((-sv-slM)/gamma) / slZ
				gA := wAT * gat
				h.gAT[u] += gA
				gS := wSL * gsl
				h.gSlew[u] += dDds*gA + dSds*gS
				if netID >= 0 {
					t.gLoadRootEarly[netID] += dDdl*gA + dSdl*gS
				}
			}
		}
	}
}
