package timing

import (
	"math"
	"testing"

	"dtgp/internal/gen"
	"dtgp/internal/liberty"
	"dtgp/internal/netlist"
)

// refSTA is a frozen, serial copy of the exact STA as it stood before the
// late-mode kernels were shared between Result and Incremental: separate
// late/early arrival, required-time and slack code written out in full. It
// is the reference TestAnalyzeMatchesReference holds Analyze to, bit for
// bit; it must not be edited to follow the engine.
type refSTA struct {
	g    *Graph
	nets []NetState

	atLate, slewLate, atEarly, slewEarly []float64
	valid                                []bool
	ratLate, ratEarly                    []float64
	predLate                             []int32
	predDelayLate                        []float64
	endpointSetup, endpointHold          []float64
	derateLate, derateEarly              float64
	wns, tns, wnsHold, tnsHold           float64
}

func refDelayTable(arc *liberty.TimingArc, out Transition) (delay, trans *liberty.LUT) {
	if out == Rise {
		return arc.CellRise, arc.RiseTransition
	}
	return arc.CellFall, arc.FallTransition
}

func refArcCombos(u liberty.Unateness, out Transition) [2]int8 {
	switch u {
	case liberty.PositiveUnate:
		return [2]int8{int8(out), -1}
	case liberty.NegativeUnate:
		return [2]int8{int8(1 - out), -1}
	default:
		return [2]int8{0, 1}
	}
}

func refConstraintTable(arc *liberty.TimingArc, dataTr Transition) *liberty.LUT {
	if dataTr == Rise {
		return arc.RiseConstraint
	}
	return arc.FallConstraint
}

func refAnalyze(g *Graph, nets []NetState) *refSTA {
	n2 := 2 * len(g.D.Pins)
	r := &refSTA{
		g: g, nets: nets,
		atLate: make([]float64, n2), slewLate: make([]float64, n2),
		atEarly: make([]float64, n2), slewEarly: make([]float64, n2),
		valid:   make([]bool, n2),
		ratLate: make([]float64, n2), ratEarly: make([]float64, n2),
		predLate: make([]int32, n2), predDelayLate: make([]float64, n2),
		derateLate: 1, derateEarly: 1,
	}
	if g.Con != nil {
		if g.Con.DerateLate > 0 {
			r.derateLate = g.Con.DerateLate
		}
		if g.Con.DerateEarly > 0 {
			r.derateEarly = g.Con.DerateEarly
		}
	}
	for i := 0; i < n2; i++ {
		r.atLate[i], r.atEarly[i] = -inf, inf
		r.ratLate[i], r.ratEarly[i] = inf, -inf
		r.predLate[i] = -1
	}
	r.arrival()
	r.required()
	r.slacks()
	return r
}

func (r *refSTA) load(pid int32) float64 {
	net := r.g.D.Pins[pid].Net
	if net < 0 || r.nets[net].Tree == nil {
		return 0
	}
	return r.nets[net].DriverLoad()
}

func (r *refSTA) arrival() {
	g, d, con := r.g, r.g.D, r.g.Con
	netOf := make([]int32, len(d.Pins))
	posOf := make([]int32, len(d.Pins))
	for i := range netOf {
		netOf[i] = -1
	}
	for ni := range r.nets {
		if r.nets[ni].Tree == nil {
			continue
		}
		for k, pid := range d.Nets[ni].Pins {
			if pid != d.Nets[ni].Driver {
				netOf[pid], posOf[pid] = int32(ni), int32(k)
			}
		}
	}
	for pi := range d.Pins {
		pid := int32(pi)
		if !g.IsStart[pid] {
			continue
		}
		var at, slew float64
		if g.IsClockPin[pid] {
			slew = 20
			if con != nil {
				slew = con.ClockSlew
			}
		} else {
			cell := &d.Cells[d.Pins[pid].Cell]
			if con != nil {
				at, slew = con.InputDelayOf(cell.Name), con.InputSlewOf(cell.Name)
			} else {
				slew = 30
			}
		}
		for tr := Rise; tr <= Fall; tr++ {
			t := TIdx(pid, tr)
			r.atLate[t], r.atEarly[t] = at, at
			r.slewLate[t], r.slewEarly[t] = slew, slew
			r.valid[t] = true
		}
	}
	maxTr := inf
	if mt := d.Lib.DefaultMaxTransition; mt > 0 {
		maxTr = mt
	}
	for _, level := range g.Levels {
		for _, pid := range level {
			switch {
			case g.IsStart[pid]:
			case g.IsNetSink[pid]:
				ni := netOf[pid]
				if ni < 0 {
					continue
				}
				ns := &r.nets[ni]
				driver := d.Nets[ni].Driver
				delay := ns.SinkDelay(int(posOf[pid]))
				imp := ns.SinkImpulse(int(posOf[pid]))
				dLate, dEarly := delay*r.derateLate, delay*r.derateEarly
				for tr := Rise; tr <= Fall; tr++ {
					u, v := TIdx(driver, tr), TIdx(pid, tr)
					if !r.valid[u] {
						continue
					}
					r.atLate[v] = r.atLate[u] + dLate
					r.atEarly[v] = r.atEarly[u] + dEarly
					r.slewLate[v] = math.Sqrt(r.slewLate[u]*r.slewLate[u] + imp*imp)
					r.slewEarly[v] = math.Sqrt(r.slewEarly[u]*r.slewEarly[u] + imp*imp)
					r.valid[v] = true
					r.predLate[v] = u
					r.predDelayLate[v] = dLate
				}
			case g.IsCellOut[pid]:
				load := r.load(pid)
				for outTr := Rise; outTr <= Fall; outTr++ {
					v := TIdx(pid, outTr)
					bestLate, bestEarly := -inf, inf
					slewLate, slewEarly := -inf, inf
					var pred int32 = -1
					var predDelay float64
					for _, ar := range g.ArcsInto[pid] {
						dl, tl := refDelayTable(ar.Arc, outTr)
						for _, in := range refArcCombos(ar.Arc.Unate, outTr) {
							if in < 0 {
								continue
							}
							u := TIdx(ar.FromPin, Transition(in))
							if !r.valid[u] {
								continue
							}
							dLate := dl.Eval(r.slewLate[u], load) * r.derateLate
							dEarly := dl.Eval(r.slewEarly[u], load) * r.derateEarly
							if at := r.atLate[u] + dLate; at > bestLate {
								bestLate, pred, predDelay = at, u, dLate
							}
							if at := r.atEarly[u] + dEarly; at < bestEarly {
								bestEarly = at
							}
							if s := tl.Eval(r.slewLate[u], load); s > slewLate {
								slewLate = s
							}
							if s := tl.Eval(r.slewEarly[u], load); s < slewEarly {
								slewEarly = s
							}
						}
					}
					if pred < 0 {
						continue
					}
					if slewLate > maxTr {
						slewLate = maxTr
					}
					if slewEarly > maxTr {
						slewEarly = maxTr
					}
					r.atLate[v], r.atEarly[v] = bestLate, bestEarly
					r.slewLate[v], r.slewEarly[v] = slewLate, slewEarly
					r.valid[v] = true
					r.predLate[v], r.predDelayLate[v] = pred, predDelay
				}
			}
		}
	}
}

func (r *refSTA) required() {
	g, d := r.g, r.g.D
	period := g.Period()
	clkSlew := 20.0
	if g.Con != nil {
		clkSlew = g.Con.ClockSlew
	}
	for ei := range g.Endpoints {
		ep := &g.Endpoints[ei]
		for tr := Rise; tr <= Fall; tr++ {
			t := TIdx(ep.Pin, tr)
			if !r.valid[t] {
				continue
			}
			switch ep.Kind {
			case EndFFData:
				if ep.Setup != nil {
					r.ratLate[t] = period - refConstraintTable(ep.Setup.Arc, tr).Eval(clkSlew, r.slewLate[t])
				}
				if ep.Hold != nil {
					r.ratEarly[t] = refConstraintTable(ep.Hold.Arc, tr).Eval(clkSlew, r.slewEarly[t])
				}
			case EndPort:
				od := 0.0
				if g.Con != nil {
					od = g.Con.OutputDelayOf(ep.PortName)
				}
				r.ratLate[t] = period - od
			}
		}
	}
	for li := len(g.Levels) - 1; li >= 0; li-- {
		for _, u := range g.Levels[li] {
			pin := &d.Pins[u]
			if pin.Dir == netlist.PinOutput && pin.Net >= 0 && !g.IsClockNet[pin.Net] && r.nets[pin.Net].Tree != nil {
				ns := &r.nets[pin.Net]
				for k, pid := range d.Nets[pin.Net].Pins {
					if pid == u {
						continue
					}
					delay := ns.SinkDelay(k)
					for tr := Rise; tr <= Fall; tr++ {
						ut, vt := TIdx(u, tr), TIdx(pid, tr)
						if !r.valid[vt] {
							continue
						}
						if v := r.ratLate[vt] - delay*r.derateLate; v < r.ratLate[ut] {
							r.ratLate[ut] = v
						}
						if v := r.ratEarly[vt] - delay*r.derateEarly; v > r.ratEarly[ut] {
							r.ratEarly[ut] = v
						}
					}
				}
			}
			cell := &d.Cells[pin.Cell]
			if cell.Lib < 0 {
				continue
			}
			lc := &d.Lib.Cells[cell.Lib]
			for ai := range lc.Arcs {
				arc := &lc.Arcs[ai]
				if arc.IsCheck() || cell.Pins[arc.From] != u {
					continue
				}
				vPin := cell.Pins[arc.To]
				load := r.load(vPin)
				for outTr := Rise; outTr <= Fall; outTr++ {
					vt := TIdx(vPin, outTr)
					if !r.valid[vt] {
						continue
					}
					dl, _ := refDelayTable(arc, outTr)
					for _, in := range refArcCombos(arc.Unate, outTr) {
						if in < 0 {
							continue
						}
						ut := TIdx(u, Transition(in))
						if !r.valid[ut] {
							continue
						}
						if v := r.ratLate[vt] - dl.Eval(r.slewLate[ut], load)*r.derateLate; v < r.ratLate[ut] {
							r.ratLate[ut] = v
						}
						if v := r.ratEarly[vt] - dl.Eval(r.slewEarly[ut], load)*r.derateEarly; v > r.ratEarly[ut] {
							r.ratEarly[ut] = v
						}
					}
				}
			}
		}
	}
}

func (r *refSTA) slacks() {
	g := r.g
	r.endpointSetup = make([]float64, len(g.Endpoints))
	r.endpointHold = make([]float64, len(g.Endpoints))
	r.wns, r.tns, r.wnsHold, r.tnsHold = inf, 0, inf, 0
	anySetup, anyHold := false, false
	for ei := range g.Endpoints {
		setup, hold := inf, inf
		for tr := Rise; tr <= Fall; tr++ {
			t := TIdx(g.Endpoints[ei].Pin, tr)
			if !r.valid[t] {
				continue
			}
			if !math.IsInf(r.ratLate[t], 1) {
				if s := r.ratLate[t] - r.atLate[t]; s < setup {
					setup = s
				}
			}
			if !math.IsInf(r.ratEarly[t], -1) {
				if s := r.atEarly[t] - r.ratEarly[t]; s < hold {
					hold = s
				}
			}
		}
		r.endpointSetup[ei], r.endpointHold[ei] = setup, hold
		if !math.IsInf(setup, 1) {
			anySetup = true
			if setup < r.wns {
				r.wns = setup
			}
			if setup < 0 {
				r.tns += setup
			}
		}
		if !math.IsInf(hold, 1) {
			anyHold = true
			if hold < r.wnsHold {
				r.wnsHold = hold
			}
			if hold < 0 {
				r.tnsHold += hold
			}
		}
	}
	if !anySetup {
		r.wns = 0
	}
	if !anyHold {
		r.wnsHold = 0
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestAnalyzeMatchesReference holds every Result array and metric to the
// frozen reference STA above, as Float64bits, on two generated designs:
// one at derate 1 and one with late/early derates off 1 (which a kernel
// dropping or misplacing a derate factor would fail).
func TestAnalyzeMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name                    string
		cells                   int
		seed                    int64
		derateLate, derateEarly float64
	}{
		{"derate1", 400, 61, 1, 1},
		{"derated", 500, 62, 1.07, 0.93},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, con, err := gen.Generate(gen.DefaultParams("ref", tc.cells, tc.seed))
			if err != nil {
				t.Fatal(err)
			}
			con.DerateLate, con.DerateEarly = tc.derateLate, tc.derateEarly
			g, err := NewGraph(d, con)
			if err != nil {
				t.Fatal(err)
			}
			// Tighten the clock so setup and hold both have violations.
			con.Period = 0.8 * Analyze(g).CriticalDelay()
			nets := BuildNetStates(g)
			ForwardAll(nets)
			got := AnalyzeWithNets(g, nets)
			want := refAnalyze(g, nets)
			arrays := []struct {
				name      string
				got, want []float64
			}{
				{"ATLate", got.ATLate, want.atLate},
				{"SlewLate", got.SlewLate, want.slewLate},
				{"ATEarly", got.ATEarly, want.atEarly},
				{"SlewEarly", got.SlewEarly, want.slewEarly},
				{"RATLate", got.RATLate, want.ratLate},
				{"RATEarly", got.RATEarly, want.ratEarly},
				{"PredDelayLate", got.PredDelayLate, want.predDelayLate},
				{"EndpointSetup", got.EndpointSetup, want.endpointSetup},
				{"EndpointHold", got.EndpointHold, want.endpointHold},
			}
			for _, a := range arrays {
				if len(a.got) != len(a.want) {
					t.Fatalf("%s: len %d, want %d", a.name, len(a.got), len(a.want))
				}
				for i := range a.want {
					if !sameBits(a.got[i], a.want[i]) {
						t.Fatalf("%s[%d] = %v, want %v", a.name, i, a.got[i], a.want[i])
					}
				}
			}
			for i := range want.valid {
				if got.Valid[i] != want.valid[i] || got.PredLate[i] != want.predLate[i] {
					t.Fatalf("tnode %d: Valid/PredLate %v/%d, want %v/%d",
						i, got.Valid[i], got.PredLate[i], want.valid[i], want.predLate[i])
				}
			}
			for _, m := range []struct {
				name      string
				got, want float64
			}{
				{"WNS", got.WNS, want.wns}, {"TNS", got.TNS, want.tns},
				{"WNSHold", got.WNSHold, want.wnsHold}, {"TNSHold", got.TNSHold, want.tnsHold},
			} {
				if !sameBits(m.got, m.want) {
					t.Errorf("%s = %v, want %v", m.name, m.got, m.want)
				}
			}
			if want.tns >= 0 {
				t.Fatalf("reference TNS %v: the design has no setup violations to compare", want.tns)
			}
		})
	}
}
