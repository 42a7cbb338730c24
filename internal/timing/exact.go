package timing

import (
	"math"

	"dtgp/internal/netlist"
)

// exactSTA is the state of an exact STA together with the one set of
// kernels that computes it. The late (setup) side is always present: the
// net-sink arc (Eq. 9), the cell-output arc (Eq. 11 with an exact max and
// the library's max-transition cap), the setup required-time seed and its
// min-pull through net and cell arcs, and endpoint setup slack with WNS/TNS
// (Eq. 2). Result runs the kernels in level-parallel sweeps and
// Incremental runs them from its worklists, so an Incremental at Epsilon 0
// equals Analyze because both run this code.
//
// Result also asks for the early (hold) side; the kernels then evaluate it
// in the same arc walks as the late side, which costs far less than a
// second walk over the same pins. Incremental runs without it.
//
// The owner allocates the slices and calls reset; every kernel writes only
// the tnodes of the pin it is given, so pins of one level may run in
// parallel.
type exactSTA struct {
	g    *Graph
	nets []NetState //dtgp:index domain=net

	at, slew []float64 //dtgp:index domain=tnode
	valid    []bool    //dtgp:index domain=tnode
	rat      []float64 //dtgp:index domain=tnode
	// pred and predDelay record each tnode's worst late predecessor and
	// the arc delay taken (Result's path reports); nil when not tracked.
	pred      []int32   //dtgp:index domain=tnode elem=tnode
	predDelay []float64 //dtgp:index domain=tnode
	// endpointSlack is the setup slack per endpoint, the min over its
	// transitions (+Inf when unconstrained).
	endpointSlack []float64 //dtgp:index domain=endp
	// early is the early (hold) side, nil when not evaluated.
	early *earlySTA

	derate  float64
	clkSlew float64
	maxTr   float64
}

// earlySTA is the early-mode state: exact-min arrivals and slews, and hold
// required times max-pulled from the hold seeds the owner writes.
type earlySTA struct {
	at, slew, rat []float64 //dtgp:index domain=tnode
	derate        float64
}

// reset clears the state to "nothing propagated" and writes the start
// pins' fixed arrivals, reading the derates and clock slew from the
// constraints as they stand now.
func (s *exactSTA) reset() {
	g := s.g
	s.derate, s.clkSlew, s.maxTr = g.DerateLate(), g.ClockSlew(), inf
	if mt := g.D.Lib.DefaultMaxTransition; mt > 0 {
		s.maxTr = mt
	}
	for i := range s.at {
		s.at[i], s.slew[i], s.valid[i], s.rat[i] = -inf, 0, false, inf
	}
	for i := range s.pred {
		s.pred[i] = -1
	}
	e := s.early
	if e != nil {
		e.derate = g.DerateEarly()
		for i := range e.at {
			e.at[i], e.slew[i], e.rat[i] = inf, 0, -inf
		}
	}
	for k, pid := range g.Starts {
		for tr := Rise; tr <= Fall; tr++ {
			t := TIdx(pid, tr)
			s.at[t], s.slew[t], s.valid[t] = g.StartAT[k], g.StartSlew[k], true
			if e != nil {
				e.at[t], e.slew[t] = g.StartAT[k], g.StartSlew[k]
			}
		}
	}
}

// load returns the capacitive load on an output pin's net.
//
//dtgp:hotpath
//dtgp:index pid=pin
func (s *exactSTA) load(pid int32) float64 {
	if net := s.g.D.Pins[pid].Net; net >= 0 && s.nets[net].Tree != nil {
		return s.nets[net].DriverLoad()
	}
	return 0
}

// arrive re-evaluates the arrival and slew of one pin from its fanin and
// reports whether the late values moved by more than eps or became valid.
// Start pins keep the values reset gave them.
//
//dtgp:hotpath
//dtgp:index pid=pin
func (s *exactSTA) arrive(pid int32, eps float64) bool {
	g := s.g
	switch {
	case g.IsStart[pid]:
		return false
	case g.IsNetSink[pid]:
		return s.netSink(pid, eps)
	case g.IsCellOut[pid]:
		return s.cellOut(pid, eps)
	}
	return false
}

// set stores a tnode's late arrival and slew, marks it valid, and reports
// whether it moved by more than eps.
//
//dtgp:hotpath
//dtgp:index v=tnode
func (s *exactSTA) set(v int32, at, slew, eps float64) bool {
	moved := !s.valid[v] || math.Abs(at-s.at[v]) > eps || math.Abs(slew-s.slew[v]) > eps
	s.at[v], s.slew[v], s.valid[v] = at, slew, true
	return moved
}

// netSink applies the net arc (Eq. 9): AT(v) = AT(u) + Delay(v)·derate,
// Slew(v) = sqrt(Slew(u)² + Impulse(v)²).
//
//dtgp:hotpath
//dtgp:index pid=pin
func (s *exactSTA) netSink(pid int32, eps float64) bool {
	g := s.g
	ni := g.NetOfSink[pid]
	if ni < 0 || s.nets[ni].Tree == nil {
		return false
	}
	ns := &s.nets[ni]
	driver := g.D.Nets[ni].Driver
	k := int(g.PosOfSink[pid])
	delay := ns.SinkDelay(k)
	dLate := delay * s.derate
	imp := ns.SinkImpulse(k)
	changed := false
	for tr := Rise; tr <= Fall; tr++ {
		u, v := TIdx(driver, tr), TIdx(pid, tr)
		if !s.valid[u] {
			continue
		}
		if s.set(v, s.at[u]+dLate, math.Sqrt(s.slew[u]*s.slew[u]+imp*imp), eps) {
			changed = true
		}
		if s.pred != nil {
			s.pred[v], s.predDelay[v] = u, dLate
		}
		if e := s.early; e != nil {
			e.at[v] = e.at[u] + delay*e.derate
			e.slew[v] = math.Sqrt(e.slew[u]*e.slew[u] + imp*imp)
		}
	}
	return changed
}

// cellOut applies all cell arcs into an output pin (Eq. 11 with an exact
// max): the first strictly latest candidate in ArcsInto/unateness order
// wins, and the slew is the max candidate slew capped at the library's
// max transition. The early side takes the exact min over the same
// candidates, and is written exactly when the late side finds a
// predecessor.
//
//dtgp:hotpath
//dtgp:index pid=pin
func (s *exactSTA) cellOut(pid int32, eps float64) bool {
	g := s.g
	e := s.early
	load := s.load(pid)
	changed := false
	for outTr := Rise; outTr <= Fall; outTr++ {
		bestAT, bestSlew := -inf, -inf
		earlyAT, earlySlew := inf, inf
		var pred int32 = -1
		var predDelay float64
		for ai := range g.ArcsInto[pid] {
			ar := &g.ArcsInto[pid][ai]
			dl, tl := DelayTable(ar.Arc, outTr)
			for _, inTr := range ArcCombos(ar.Arc.Unate, outTr) {
				if inTr < 0 {
					continue
				}
				u := TIdx(ar.FromPin, Transition(inTr))
				if !s.valid[u] {
					continue
				}
				// Each table is evaluated at the late and then the early
				// slew back to back, which keeps the lookups cheap.
				d := dl.Eval(s.slew[u], load) * s.derate
				if at := s.at[u] + d; at > bestAT {
					bestAT, pred, predDelay = at, u, d
				}
				if e != nil {
					if at := e.at[u] + dl.Eval(e.slew[u], load)*e.derate; at < earlyAT {
						earlyAT = at
					}
				}
				if sl := tl.Eval(s.slew[u], load); sl > bestSlew {
					bestSlew = sl
				}
				if e != nil {
					if sl := tl.Eval(e.slew[u], load); sl < earlySlew {
						earlySlew = sl
					}
				}
			}
		}
		if pred < 0 {
			continue
		}
		if bestSlew > s.maxTr {
			bestSlew = s.maxTr
		}
		v := TIdx(pid, outTr)
		if s.set(v, bestAT, bestSlew, eps) {
			changed = true
		}
		if s.pred != nil {
			s.pred[v], s.predDelay[v] = pred, predDelay
		}
		if e != nil {
			if earlySlew > s.maxTr {
				earlySlew = s.maxTr
			}
			e.at[v], e.slew[v] = earlyAT, earlySlew
		}
	}
	return changed
}

// seedRAT returns the setup required time of (pid, tr) as an endpoint:
// period minus the setup constraint at a register data pin, period minus
// the output delay at a primary output, +Inf elsewhere or when the tnode
// carries no arrival.
//
//dtgp:hotpath
//dtgp:index pid=pin
func (s *exactSTA) seedRAT(pid int32, tr Transition) float64 {
	g := s.g
	ei := g.EndpointOf[pid]
	t := TIdx(pid, tr)
	if ei < 0 || !s.valid[t] {
		return inf
	}
	ep := &g.Endpoints[ei]
	switch {
	case ep.Kind == EndFFData && ep.Setup != nil:
		return g.Period() - ConstraintTable(ep.Setup.Arc, tr).Eval(s.clkSlew, s.slew[t])
	case ep.Kind == EndPort:
		od := 0.0
		if g.Con != nil {
			od = g.Con.OutputDelayOf(ep.PortName)
		}
		return g.Period() - od
	}
	return inf
}

// require recomputes the setup required time of one pin: its endpoint seed
// min-pulled with RAT(v) − delay·derate over every fanout v, through the
// net it drives and through the cell arcs it feeds. It reports whether
// either transition moved by more than eps. The early side max-pulls the
// hold required time in place, over the same fanouts, from whatever seed
// the owner wrote.
//
//dtgp:hotpath
//dtgp:index pid=pin
func (s *exactSTA) require(pid int32, eps float64) bool {
	g := s.g
	d := g.D
	e := s.early
	pin := &d.Pins[pid]
	rat := [2]float64{s.seedRAT(pid, Rise), s.seedRAT(pid, Fall)}

	// Fanout via net (pid is a driver).
	if pin.Dir == netlist.PinOutput && pin.Net >= 0 && !g.IsClockNet[pin.Net] {
		if ns := &s.nets[pin.Net]; ns.Tree != nil {
			for k, q := range d.Nets[pin.Net].Pins {
				if q == pid {
					continue
				}
				delay := ns.SinkDelay(k)
				for tr := Rise; tr <= Fall; tr++ {
					vt := TIdx(q, tr)
					if !s.valid[vt] {
						continue
					}
					if v := s.rat[vt] - delay*s.derate; v < rat[tr] {
						rat[tr] = v
					}
					if e != nil {
						if ut, v := TIdx(pid, tr), e.rat[vt]-delay*e.derate; v > e.rat[ut] {
							e.rat[ut] = v
						}
					}
				}
			}
		}
	}

	// Fanout via cell arcs (pid is a cell input).
	if cell := &d.Cells[pin.Cell]; cell.Lib >= 0 {
		lc := &d.Lib.Cells[cell.Lib]
		for ai := range lc.Arcs {
			arc := &lc.Arcs[ai]
			if arc.IsCheck() || cell.Pins[arc.From] != pid {
				continue
			}
			vPin := cell.Pins[arc.To]
			load := s.load(vPin)
			for outTr := Rise; outTr <= Fall; outTr++ {
				vt := TIdx(vPin, outTr)
				if !s.valid[vt] {
					continue
				}
				dl, _ := DelayTable(arc, outTr)
				for _, inTr := range ArcCombos(arc.Unate, outTr) {
					if inTr < 0 {
						continue
					}
					ut := TIdx(pid, Transition(inTr))
					if !s.valid[ut] {
						continue
					}
					if v := s.rat[vt] - dl.Eval(s.slew[ut], load)*s.derate; v < rat[inTr] {
						rat[inTr] = v
					}
					if e != nil {
						if v := e.rat[vt] - dl.Eval(e.slew[ut], load)*e.derate; v > e.rat[ut] {
							e.rat[ut] = v
						}
					}
				}
			}
		}
	}

	changed := false
	for tr := Rise; tr <= Fall; tr++ {
		t := TIdx(pid, tr)
		// Inf→Inf compares as NaN and reads unchanged; Inf→finite (or back)
		// is +Inf and propagates.
		if math.Abs(rat[tr]-s.rat[t]) > eps {
			changed = true
		}
		s.rat[t] = rat[tr]
	}
	return changed
}

// slacks refreshes the per-endpoint setup slacks and returns WNS (the
// minimum endpoint slack, 0 when no endpoint is constrained) and TNS (the
// sum of negative endpoint slacks), Eq. 2.
//
//dtgp:hotpath
func (s *exactSTA) slacks() (wns, tns float64) {
	g := s.g
	wns = inf
	any := false
	for ei := range g.Endpoints {
		slack := inf
		for tr := Rise; tr <= Fall; tr++ {
			if ps := s.pinSlack(g.Endpoints[ei].Pin, tr); ps < slack {
				slack = ps
			}
		}
		s.endpointSlack[ei] = slack
		if !math.IsInf(slack, 1) {
			any = true
			if slack < wns {
				wns = slack
			}
			if slack < 0 {
				tns += slack
			}
		}
	}
	if !any {
		wns = 0
	}
	return wns, tns
}

// pinSlack returns the setup slack at (pid, tr), +Inf when the tnode
// carries no constrained arrival.
//
//dtgp:hotpath
//dtgp:index pid=pin
func (s *exactSTA) pinSlack(pid int32, tr Transition) float64 {
	t := TIdx(pid, tr)
	if !s.valid[t] || math.IsInf(s.rat[t], 1) {
		return inf
	}
	return s.rat[t] - s.at[t]
}
