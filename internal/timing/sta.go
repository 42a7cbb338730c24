package timing

import (
	"math"

	"dtgp/internal/parallel"
)

var inf = math.Inf(1)

// Result holds a full exact STA of one placement snapshot.
type Result struct {
	G    *Graph
	Nets []NetState //dtgp:index domain=net

	// Per (pin, transition) arrays, indexed with TIdx.
	ATLate, SlewLate   []float64 //dtgp:index domain=tnode
	ATEarly, SlewEarly []float64 //dtgp:index domain=tnode
	Valid              []bool    //dtgp:index domain=tnode

	// Required arrival times (setup uses late, hold uses early).
	RATLate, RATEarly []float64 //dtgp:index domain=tnode

	// PredLate[t] is the worst late predecessor of t (a TIdx), -1 at
	// starts; PredDelayLate is the arc delay taken.
	PredLate      []int32   //dtgp:index domain=tnode elem=tnode
	PredDelayLate []float64 //dtgp:index domain=tnode

	// Per-endpoint setup and hold slacks (min over transitions); hold is
	// +Inf for endpoints without hold checks.
	EndpointSetup []float64 //dtgp:index domain=endp
	EndpointHold  []float64 //dtgp:index domain=endp

	// sta is the kernel state the arrays above alias.
	sta exactSTA

	// Setup metrics (the paper's WNS/TNS, Eq. 2): WNS is the minimum
	// endpoint slack, TNS sums negative endpoint slacks.
	WNS, TNS float64
	// Hold metrics.
	WNSHold, TNSHold float64
}

// Analyze runs exact STA: Steiner/RC construction, Elmore forward passes,
// level-by-level arrival propagation, required times and slacks.
func Analyze(g *Graph) *Result {
	nets := BuildNetStates(g)
	ForwardAll(nets)
	return AnalyzeWithNets(g, nets)
}

// AnalyzeWithNets runs exact STA on pre-built (and already Forward-ed) net
// states, so callers that maintain Steiner trees incrementally can reuse
// them. It runs the exactSTA kernels, late and early side together, in one
// level-parallel sweep in each direction.
func AnalyzeWithNets(g *Graph, nets []NetState) *Result {
	n2 := 2 * len(g.D.Pins)
	r := &Result{
		G:             g,
		Nets:          nets,
		ATLate:        make([]float64, n2),
		SlewLate:      make([]float64, n2),
		ATEarly:       make([]float64, n2),
		SlewEarly:     make([]float64, n2),
		Valid:         make([]bool, n2),
		RATLate:       make([]float64, n2),
		RATEarly:      make([]float64, n2),
		PredLate:      make([]int32, n2),
		PredDelayLate: make([]float64, n2),
		EndpointSetup: make([]float64, len(g.Endpoints)),
		EndpointHold:  make([]float64, len(g.Endpoints)),
	}
	r.sta = exactSTA{
		g: g, nets: nets,
		at: r.ATLate, slew: r.SlewLate, valid: r.Valid, rat: r.RATLate,
		pred: r.PredLate, predDelay: r.PredDelayLate, endpointSlack: r.EndpointSetup,
		early: &earlySTA{at: r.ATEarly, slew: r.SlewEarly, rat: r.RATEarly},
	}
	s := &r.sta
	s.reset()

	// Arrivals, lowest level first: a pin's fanins sit at strictly smaller
	// levels, so they are final when it is evaluated, and pins within one
	// level are independent. Each pin evaluates several LUT lookups, so
	// even short levels are worth fanning out (CostHeavy).
	for _, level := range g.Levels {
		level := level
		parallel.ForCost(len(level), parallel.CostHeavy, func(i int) { s.arrive(level[i], 0) })
	}

	// Required times, highest level first (fanouts sit at strictly greater
	// levels). The kernel computes setup seeds itself; hold seeds are
	// written up front.
	r.seedHold()
	for li := len(g.Levels) - 1; li >= 0; li-- {
		level := g.Levels[li]
		parallel.ForCost(len(level), parallel.CostHeavy, func(i int) { s.require(level[i], 0) })
	}

	r.WNS, r.TNS = s.slacks()
	r.holdSlacks()
	return r
}

// seedHold writes the hold required time at register data pins with a hold
// check: the hold constraint at the early data slew.
func (r *Result) seedHold() {
	g := r.G
	for ei := range g.Endpoints {
		ep := &g.Endpoints[ei]
		if ep.Kind != EndFFData || ep.Hold == nil {
			continue
		}
		for tr := Rise; tr <= Fall; tr++ {
			if t := TIdx(ep.Pin, tr); r.Valid[t] {
				r.RATEarly[t] = ConstraintTable(ep.Hold.Arc, tr).Eval(r.sta.clkSlew, r.SlewEarly[t])
			}
		}
	}
}

// holdSlacks derives endpoint hold slacks and the hold WNS/TNS.
func (r *Result) holdSlacks() {
	g := r.G
	r.WNSHold, r.TNSHold = inf, 0
	anyHold := false
	for ei := range g.Endpoints {
		hold := inf
		for tr := Rise; tr <= Fall; tr++ {
			t := TIdx(g.Endpoints[ei].Pin, tr)
			if !r.Valid[t] || math.IsInf(r.RATEarly[t], -1) {
				continue
			}
			if s := r.ATEarly[t] - r.RATEarly[t]; s < hold {
				hold = s
			}
		}
		r.EndpointHold[ei] = hold
		if !math.IsInf(hold, 1) {
			anyHold = true
			if hold < r.WNSHold {
				r.WNSHold = hold
			}
			if hold < 0 {
				r.TNSHold += hold
			}
		}
	}
	if !anyHold {
		r.WNSHold = 0
	}
}

// Finite reports whether the analysis produced only finite summary metrics.
// WNS/TNS (setup and hold) are finite by construction on healthy inputs —
// endpointless designs reset them to 0 — so a NaN or Inf here means the
// netlist carried non-finite positions or a degenerate library value
// through the propagation; callers (dtgp-sta, the run supervisor) must
// treat the result as poisoned rather than report it.
func (r *Result) Finite() bool {
	for _, x := range [...]float64{r.WNS, r.TNS, r.WNSHold, r.TNSHold} {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// Graph returns the timing graph the result was computed over
// (netweight.SlackSource).
func (r *Result) Graph() *Graph { return r.G }

// WorstSlack returns the setup WNS (netweight.SlackSource).
func (r *Result) WorstSlack() float64 { return r.WNS }

// PinSlack returns the late (setup) slack at a (pin, transition), +Inf when
// the pin carries no constrained arrival.
//
//dtgp:index pid=pin
func (r *Result) PinSlack(pid int32, tr Transition) float64 { return r.sta.pinSlack(pid, tr) }
