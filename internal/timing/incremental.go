package timing

import (
	"math"
	"slices"
	"sort"

	"dtgp/internal/bitset"
	"dtgp/internal/netlist"
	"dtgp/internal/parallel"
)

// Incremental is an incremental late-mode STA engine in the spirit of the
// TAU 2015 contest (the paper's reference [30]): after a set of cells move,
// only the affected timing cone is re-evaluated — incident nets get fresh
// Elmore state, and arrival/slew changes propagate forward level by level
// until they damp out. Endpoint setup slacks (and WNS/TNS) stay current
// because required times at endpoints are local functions of period and
// data slew.
//
// It maintains late/setup analysis only, which is what placement-loop
// clients need: the net-weighting flow's exact STA on every reweight, and
// swap evaluation in timing-driven detailed placement.
type Incremental struct {
	G    *Graph
	Nets []NetState //dtgp:index domain=net

	// AT and Slew are the late arrival state (exact max aggregation).
	AT, Slew []float64 //dtgp:index domain=tnode
	Valid    []bool    //dtgp:index domain=tnode
	// RATLate is the maintained late required-time state, min-pulled from
	// endpoint seeds exactly as Result.propagateRequired computes it, so
	// per-pin slacks (PinSlack) stay current after every MoveCells batch.
	RATLate []float64 //dtgp:index domain=tnode

	// EndpointSlack per endpoint index (min over transitions).
	EndpointSlack []float64 //dtgp:index domain=endp
	// WNS and TNS over endpoints.
	WNS, TNS float64

	netOfSink []int32 //dtgp:index domain=pin elem=net
	posOfSink []int32 //dtgp:index domain=pin elem=npin
	// endpointOf maps a pin to its endpoint index, or -1.
	endpointOf []int32 //dtgp:index domain=pin elem=endp
	// Pending propagation state: work holds dirty pins sorted by
	// (level, pid), inDirty is their membership bitset. An explicit
	// worklist instead of a map keyed set makes the drain order
	// deterministic by construction (map iteration order would otherwise
	// leak into the re-evaluation schedule) and avoids per-move map churn.
	work    []int32 //dtgp:index elem=pin
	inDirty bitset.Set
	// ratWork/inRatDirty are the reverse (required-time) worklist, drained
	// in (-level, pid) order after the forward drain.
	ratWork    []int32 //dtgp:index elem=pin
	inRatDirty bitset.Set
	// netWork/netTouched collect the incident nets of a move batch in
	// first-touched order.
	netWork    []int32 //dtgp:index elem=net
	netTouched bitset.Set
	derate     float64
	clkSlew    float64
	// Epsilon below which an AT/slew/RAT change does not propagate further.
	Epsilon float64

	fwdSorter workSorter
	ratSorter workSorter

	// rebuildFn re-extracts netWork[lo:hi] on the worker pool; stored once
	// so MoveCells stays allocation-free in steady state.
	rebuildFn func(w, lo, hi int)
}

// workSorter sorts a pin worklist by (level, pid), optionally with levels
// descending (the required-time drain order). Large worklists take a
// counting-sort-by-level path over the persistent counts/starts/scratch
// buffers, so no call allocates.
type workSorter struct {
	w     []int32 //dtgp:index elem=pin
	level []int32 //dtgp:index domain=pin elem=level
	desc  bool
	// Counting-sort state: counts/starts are per-level (len = number of
	// levels), scratch holds the scattered worklist (cap = number of pins).
	counts, starts []int32 //dtgp:index domain=level
	scratch        []int32 //dtgp:index elem=pin
}

func (s *workSorter) less(i, j int) bool {
	a, b := s.w[i], s.w[j]
	la, lb := s.level[a], s.level[b]
	if la != lb {
		if s.desc {
			return la > lb
		}
		return la < lb
	}
	return a < b
}

// NewIncremental builds the engine and runs the initial full analysis.
func NewIncremental(g *Graph) *Incremental {
	n2 := 2 * len(g.D.Pins)
	inc := &Incremental{
		G:       g,
		AT:      make([]float64, n2),
		Slew:    make([]float64, n2),
		Valid:   make([]bool, n2),
		RATLate: make([]float64, n2),
		derate:  1,
		clkSlew: 20,
		Epsilon: 1e-6,
	}
	if g.Con != nil {
		if g.Con.DerateLate > 0 {
			inc.derate = g.Con.DerateLate
		}
		inc.clkSlew = g.Con.ClockSlew
	}
	inc.fwdSorter.level = g.Level
	inc.ratSorter.level = g.Level
	inc.ratSorter.desc = true
	for _, s := range []*workSorter{&inc.fwdSorter, &inc.ratSorter} {
		s.counts = make([]int32, len(g.Levels))
		s.starts = make([]int32, len(g.Levels))
		s.scratch = make([]int32, len(g.D.Pins))
	}
	inc.rebuildFn = func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			ns := &inc.Nets[inc.netWork[i]]
			if ns.Tree == nil {
				continue
			}
			buildNetStateInto(inc.G, ns.Net, ns)
			ns.RC.Forward()
		}
	}
	inc.endpointOf = make([]int32, len(g.D.Pins))
	for i := range inc.endpointOf {
		inc.endpointOf[i] = -1
	}
	for ei := range g.Endpoints {
		inc.endpointOf[g.Endpoints[ei].Pin] = int32(ei)
	}
	inc.inDirty.Grow(len(g.D.Pins))
	inc.inRatDirty.Grow(len(g.D.Pins))
	inc.netTouched.Grow(len(g.D.Nets))
	inc.netOfSink = make([]int32, len(g.D.Pins))
	inc.posOfSink = make([]int32, len(g.D.Pins))
	for i := range inc.netOfSink {
		inc.netOfSink[i] = -1
	}
	for ni := range g.D.Nets {
		if g.IsClockNet[ni] {
			continue
		}
		net := &g.D.Nets[ni]
		if net.Driver < 0 || len(net.Pins) < 2 {
			continue
		}
		for k, pid := range net.Pins {
			if pid != net.Driver {
				inc.netOfSink[pid] = int32(ni)
				inc.posOfSink[pid] = int32(k)
			}
		}
	}
	inc.Nets = BuildNetStates(g)
	ForwardAll(inc.Nets)
	inc.fullForward()
	inc.fullRequired()
	inc.recomputeMetrics()
	return inc
}

// Graph returns the timing graph (netweight.SlackSource).
func (inc *Incremental) Graph() *Graph { return inc.G }

// WorstSlack returns the maintained WNS (netweight.SlackSource).
func (inc *Incremental) WorstSlack() float64 { return inc.WNS }

// PinSlack returns the late (setup) slack at a (pin, transition), +Inf when
// the pin carries no constrained arrival — arithmetically identical to
// Result.PinSlack on the maintained state.
//
//dtgp:hotpath
//dtgp:index pid=pin
func (inc *Incremental) PinSlack(pid int32, tr Transition) float64 {
	t := TIdx(pid, tr)
	if !inc.Valid[t] || math.IsInf(inc.RATLate[t], 1) {
		return inf
	}
	return inc.RATLate[t] - inc.AT[t]
}

// fullForward runs the complete late propagation from scratch.
//
//dtgp:hotpath
func (inc *Incremental) fullForward() {
	g := inc.G
	ninf := math.Inf(-1)
	for i := range inc.AT {
		inc.AT[i] = ninf
		inc.Slew[i] = 0
		inc.Valid[i] = false
	}
	for pi := range g.D.Pins {
		pid := int32(pi)
		if g.IsStart[pid] {
			inc.initStart(pid)
		}
	}
	for _, level := range g.Levels {
		for _, pid := range level {
			switch {
			case g.IsStart[pid]:
			case g.IsNetSink[pid]:
				inc.evalNetSink(pid)
			case g.IsCellOut[pid]:
				inc.evalCellOut(pid)
			}
		}
	}
}

//dtgp:hotpath
//dtgp:index pid=pin
func (inc *Incremental) initStart(pid int32) {
	g := inc.G
	var at, slew float64
	if g.IsClockPin[pid] {
		at, slew = 0, 20
		if g.Con != nil {
			slew = g.Con.ClockSlew
		}
	} else {
		cell := &g.D.Cells[g.D.Pins[pid].Cell]
		if g.Con != nil {
			at = g.Con.InputDelayOf(cell.Name)
			slew = g.Con.InputSlewOf(cell.Name)
		} else {
			slew = 30
		}
	}
	for tr := Rise; tr <= Fall; tr++ {
		t := TIdx(pid, tr)
		inc.AT[t] = at
		inc.Slew[t] = slew
		inc.Valid[t] = true
	}
}

// evalNetSink recomputes a sink pin; returns true when its AT/slew moved by
// more than Epsilon.
//
//dtgp:hotpath
//dtgp:index pid=pin
func (inc *Incremental) evalNetSink(pid int32) bool {
	ni := inc.netOfSink[pid]
	if ni < 0 || inc.Nets[ni].Tree == nil {
		return false
	}
	ns := &inc.Nets[ni]
	driver := inc.G.D.Nets[ni].Driver
	k := int(inc.posOfSink[pid])
	delay := ns.SinkDelay(k) * inc.derate
	imp := ns.SinkImpulse(k)
	changed := false
	for tr := Rise; tr <= Fall; tr++ {
		u, v := TIdx(driver, tr), TIdx(pid, tr)
		if !inc.Valid[u] {
			continue
		}
		at := inc.AT[u] + delay
		slew := math.Sqrt(inc.Slew[u]*inc.Slew[u] + imp*imp)
		if !inc.Valid[v] || math.Abs(at-inc.AT[v]) > inc.Epsilon ||
			math.Abs(slew-inc.Slew[v]) > inc.Epsilon {
			changed = true
		}
		inc.AT[v], inc.Slew[v] = at, slew
		inc.Valid[v] = true
	}
	return changed
}

// evalCellOut recomputes a cell output pin (exact max aggregation).
//
//dtgp:hotpath
//dtgp:index pid=pin
func (inc *Incremental) evalCellOut(pid int32) bool {
	g := inc.G
	load := 0.0
	if net := g.D.Pins[pid].Net; net >= 0 && inc.Nets[net].Tree != nil {
		load = inc.Nets[net].DriverLoad()
	}
	maxTr := math.Inf(1)
	if mt := g.D.Lib.DefaultMaxTransition; mt > 0 {
		maxTr = mt
	}
	changed := false
	for outTr := Rise; outTr <= Fall; outTr++ {
		v := TIdx(pid, outTr)
		bestAT, bestSlew := math.Inf(-1), math.Inf(-1)
		any := false
		for ai := range g.ArcsInto[pid] {
			ar := &g.ArcsInto[pid][ai]
			dl, tl := delayTable(ar.Arc, outTr)
			for _, inTrRaw := range arcCombos(ar.Arc.Unate, outTr) {
				if inTrRaw < 0 {
					continue
				}
				u := TIdx(ar.FromPin, Transition(inTrRaw))
				if !inc.Valid[u] {
					continue
				}
				any = true
				if at := inc.AT[u] + dl.Eval(inc.Slew[u], load)*inc.derate; at > bestAT {
					bestAT = at
				}
				if s := tl.Eval(inc.Slew[u], load); s > bestSlew {
					bestSlew = s
				}
			}
		}
		if !any {
			continue
		}
		if bestSlew > maxTr {
			bestSlew = maxTr
		}
		if !inc.Valid[v] || math.Abs(bestAT-inc.AT[v]) > inc.Epsilon ||
			math.Abs(bestSlew-inc.Slew[v]) > inc.Epsilon {
			changed = true
		}
		inc.AT[v], inc.Slew[v] = bestAT, bestSlew
		inc.Valid[v] = true
	}
	return changed
}

//dtgp:hotpath
//dtgp:index pid=pin
func (inc *Incremental) driverLoadOf(pid int32) float64 {
	if net := inc.G.D.Pins[pid].Net; net >= 0 && inc.Nets[net].Tree != nil {
		return inc.Nets[net].DriverLoad()
	}
	return 0
}

// seedRAT returns the endpoint required time of (pid, tr), or +Inf when pid
// is not a constrained endpoint — the seed Result.propagateRequired writes
// before the backward pull.
//
//dtgp:hotpath
//dtgp:index pid=pin
func (inc *Incremental) seedRAT(pid int32, tr Transition) float64 {
	ei := inc.endpointOf[pid]
	if ei < 0 {
		return inf
	}
	g := inc.G
	ep := &g.Endpoints[ei]
	t := TIdx(pid, tr)
	if !inc.Valid[t] {
		return inf
	}
	switch {
	case ep.Kind == EndFFData && ep.Setup != nil:
		return g.Period() - constraintTable(ep.Setup.Arc, tr).Eval(inc.clkSlew, inc.Slew[t])
	case ep.Kind == EndPort:
		od := 0.0
		if g.Con != nil {
			od = g.Con.OutputDelayOf(ep.PortName)
		}
		return g.Period() - od
	}
	return inf
}

// evalRAT recomputes the late required time of one pin from its endpoint
// seed and its fanout pulls — the same min-aggregation as
// Result.pullRequired, term by term, so maintained and from-scratch RATs
// agree bitwise (exact min is insensitive to pull order). Returns true when
// either transition moved by more than Epsilon.
//
//dtgp:hotpath
//dtgp:index pid=pin
func (inc *Incremental) evalRAT(pid int32) bool {
	g := inc.G
	d := g.D
	pin := &d.Pins[pid]
	var rat [2]float64
	for tr := Rise; tr <= Fall; tr++ {
		rat[tr] = inc.seedRAT(pid, tr)
	}

	// Fanout via net (pid is a driver).
	if pin.Dir == netlist.PinOutput && pin.Net >= 0 && !g.IsClockNet[pin.Net] {
		ns := &inc.Nets[pin.Net]
		if ns.Tree != nil {
			for k, q := range d.Nets[pin.Net].Pins {
				if q == pid {
					continue
				}
				delay := ns.SinkDelay(k)
				for tr := Rise; tr <= Fall; tr++ {
					vt := TIdx(q, tr)
					if !inc.Valid[vt] {
						continue
					}
					if v := inc.RATLate[vt] - delay*inc.derate; v < rat[tr] {
						rat[tr] = v
					}
				}
			}
		}
	}

	// Fanout via cell arcs (pid is a cell input).
	cell := &d.Cells[pin.Cell]
	if cell.Lib >= 0 {
		lc := &d.Lib.Cells[cell.Lib]
		for ai := range lc.Arcs {
			arc := &lc.Arcs[ai]
			if arc.IsCheck() || cell.Pins[arc.From] != pid {
				continue
			}
			vPin := cell.Pins[arc.To]
			load := inc.driverLoadOf(vPin)
			for outTr := Rise; outTr <= Fall; outTr++ {
				vt := TIdx(vPin, outTr)
				if !inc.Valid[vt] {
					continue
				}
				dl, _ := delayTable(arc, outTr)
				for _, inTrRaw := range arcCombos(arc.Unate, outTr) {
					if inTrRaw < 0 {
						continue
					}
					ut := TIdx(pid, Transition(inTrRaw))
					if !inc.Valid[ut] {
						continue
					}
					if v := inc.RATLate[vt] - dl.Eval(inc.Slew[ut], load)*inc.derate; v < rat[inTrRaw] {
						rat[inTrRaw] = v
					}
				}
			}
		}
	}

	changed := false
	for tr := Rise; tr <= Fall; tr++ {
		t := TIdx(pid, tr)
		if math.Abs(rat[tr]-inc.RATLate[t]) > inc.Epsilon {
			// Inf→Inf compares as NaN and reads unchanged; Inf→finite (or
			// back) is +Inf and propagates — exactly the wanted contract.
			changed = true
		}
		inc.RATLate[t] = rat[tr]
	}
	return changed
}

// fullRequired recomputes every pin's required time from scratch, highest
// level first (a pin's fanouts are strictly deeper, so their RATs are final
// when the pin is evaluated).
//
//dtgp:hotpath
func (inc *Incremental) fullRequired() {
	for i := range inc.RATLate {
		inc.RATLate[i] = inf
	}
	g := inc.G
	for li := len(g.Levels) - 1; li >= 0; li-- {
		for _, pid := range g.Levels[li] {
			inc.evalRAT(pid)
		}
	}
}

// MoveCells informs the engine that the given cells changed position. The
// incident nets' interconnect is re-extracted and arrival changes propagate
// forward; required times propagate backward; endpoint metrics are
// refreshed.
//
//dtgp:hotpath
//dtgp:index cells=[]cell
func (inc *Incremental) MoveCells(cells []int32) {
	g := inc.G
	d := g.D
	// Collect incident nets in first-touched order (deterministic given
	// the caller's cell order; a map keyed set would re-extract in random
	// order and, worse, dirty pins in random order).
	inc.netWork = inc.netWork[:0]
	for _, ci := range cells {
		for _, pid := range d.Cells[ci].Pins {
			if ni := d.Pins[pid].Net; ni >= 0 && !g.IsClockNet[ni] && inc.netTouched.TryAdd(ni) {
				inc.netWork = append(inc.netWork, ni)
			}
		}
	}
	// Re-extract with fresh topology (cheap per net and always valid) on
	// the worker pool: each net's state is independent, and the dirty
	// marking below stays serial in first-touched order, so the result is
	// identical to the serial sweep.
	parallel.ForGuided(len(inc.netWork), 4, parallel.CostHeavy, inc.rebuildFn)
	for _, ni := range inc.netWork {
		inc.netTouched.Remove(ni)
		ns := &inc.Nets[ni]
		if ns.Tree == nil {
			continue
		}
		// Sinks see new delays; the driver sees a new load (its cell arcs
		// must be re-evaluated).
		for _, pid := range d.Nets[ni].Pins {
			inc.markDirty(pid)
		}
		// Required times that read this net's state directly: the driver
		// pulls across the new sink delays, and each cell input feeding the
		// driver pulls through an arc whose load is the driver's new load.
		driver := d.Nets[ni].Driver
		inc.markRATDirty(driver)
		for ai := range g.ArcsInto[driver] {
			inc.markRATDirty(g.ArcsInto[driver][ai].FromPin)
		}
	}
	inc.propagate()
	inc.propagateRAT()
	inc.recomputeMetrics()
}

// markDirty appends pid to the worklist unless it is already pending.
//
//dtgp:hotpath
//dtgp:index pid=pin
func (inc *Incremental) markDirty(pid int32) {
	if inc.inDirty.TryAdd(pid) {
		inc.work = append(inc.work, pid)
	}
}

// propagate drains the dirty worklist in (level, pid) order, re-evaluating
// pins and expanding to fanouts when values changed. The order is total, so
// the drain schedule — not just the final values — is deterministic.
//
//dtgp:hotpath
func (inc *Incremental) propagate() {
	g := inc.G
	if len(inc.work) == 0 {
		return
	}
	inc.sortWork()
	for head := 0; head < len(inc.work); head++ {
		pid := inc.work[head]
		inc.inDirty.Remove(pid)
		var changed bool
		switch {
		case g.IsStart[pid]:
			// Start values never change with placement.
			changed = false
		case g.IsNetSink[pid]:
			changed = inc.evalNetSink(pid)
		case g.IsCellOut[pid]:
			changed = inc.evalCellOut(pid)
		}
		if !changed {
			continue
		}
		// A changed slew moves this pin's endpoint seed and the arc-delay
		// pulls evaluated at it, so its required time must be revisited
		// (conservatively also on AT-only changes; the RAT then re-evaluates
		// to the same value and damps immediately).
		inc.markRATDirty(pid)
		// Expand to fanouts: net sinks if pid drives a net; cell outputs
		// fed by pid. Fanouts are strictly deeper than pid, so insertion
		// always lands beyond head and the pending tail stays sorted.
		pin := &g.D.Pins[pid]
		if ni := pin.Net; ni >= 0 && !g.IsClockNet[ni] && g.D.Nets[ni].Driver == pid {
			for _, q := range g.D.Nets[ni].Pins {
				if q != pid && inc.inDirty.TryAdd(q) {
					inc.insertPending(head+1, q)
				}
			}
		}
		cell := &g.D.Cells[pin.Cell]
		if cell.Lib >= 0 {
			lc := &g.D.Lib.Cells[cell.Lib]
			for ai := range lc.Arcs {
				arc := &lc.Arcs[ai]
				if arc.IsCheck() || cell.Pins[arc.From] != pid {
					continue
				}
				if q := cell.Pins[arc.To]; inc.inDirty.TryAdd(q) {
					inc.insertPending(head+1, q)
				}
			}
		}
	}
	inc.work = inc.work[:0]
}

// markRATDirty appends pid to the reverse worklist unless already pending.
//
//dtgp:hotpath
//dtgp:index pid=pin
func (inc *Incremental) markRATDirty(pid int32) {
	if inc.inRatDirty.TryAdd(pid) {
		inc.ratWork = append(inc.ratWork, pid)
	}
}

// propagateRAT drains the required-time worklist in (-level, pid) order:
// deepest pins first, because a pin's RAT reads only its fanouts' RATs,
// which sit at strictly greater levels. Fanins discovered on a change are
// strictly shallower, so insertion always lands beyond head and the pending
// tail stays sorted. Runs after the forward drain (evalRAT reads final
// slews).
//
//dtgp:hotpath
func (inc *Incremental) propagateRAT() {
	if len(inc.ratWork) == 0 {
		return
	}
	g := inc.G
	inc.ratSorter.w = inc.ratWork
	sortHybrid(&inc.ratSorter)
	for head := 0; head < len(inc.ratWork); head++ {
		pid := inc.ratWork[head]
		inc.inRatDirty.Remove(pid)
		if !inc.evalRAT(pid) {
			continue
		}
		// Fanins whose pulls read pid's RAT: the driver of pid's net when
		// pid is a sink, and the From pins of the cell arcs into pid when
		// pid is a cell output.
		if ni := inc.netOfSink[pid]; ni >= 0 {
			if q := g.D.Nets[ni].Driver; inc.inRatDirty.TryAdd(q) {
				inc.insertRatPending(head+1, q)
			}
		}
		for ai := range g.ArcsInto[pid] {
			if q := g.ArcsInto[pid][ai].FromPin; inc.inRatDirty.TryAdd(q) {
				inc.insertRatPending(head+1, q)
			}
		}
	}
	inc.ratWork = inc.ratWork[:0]
}

// insertRatPending inserts pid into the sorted pending region ratWork[from:].
//
//dtgp:hotpath
//dtgp:index pid=pin
func (inc *Incremental) insertRatPending(from int, pid int32) {
	tail := inc.ratWork[from:]
	i := from + sort.Search(len(tail), func(i int) bool { return !inc.beforeRAT(tail[i], pid) })
	inc.ratWork = append(inc.ratWork, 0)
	copy(inc.ratWork[i+1:], inc.ratWork[i:])
	inc.ratWork[i] = pid
}

// beforeRAT is the reverse drain order: descending level, then pin id.
//
//dtgp:hotpath
//dtgp:index a=pin b=pin
func (inc *Incremental) beforeRAT(a, b int32) bool {
	la, lb := inc.G.Level[a], inc.G.Level[b]
	if la != lb {
		return la > lb
	}
	return a < b
}

// sortHybridCutoff is the worklist length above which the O(n²) insertion
// sort is abandoned for a counting sort by level. Small dirty sets (the
// incremental common case) stay on the insertion path, which is fast on the
// mostly-ordered sets moves produce; placement-loop batches that dirty most
// of the graph pay O(n + levels) plus a cheap pid sort per level bucket.
// Both paths run on persistent buffers and allocate nothing.
const sortHybridCutoff = 256

//dtgp:hotpath
func sortHybrid(s *workSorter) {
	n := len(s.w)
	if n > sortHybridCutoff {
		level := s.level
		counts := s.counts
		for i := range counts {
			counts[i] = 0
		}
		for _, p := range s.w {
			counts[level[p]]++
		}
		// Segment starts in drain order; counts then doubles as the
		// scatter cursor.
		acc := int32(0)
		if s.desc {
			for l := len(counts) - 1; l >= 0; l-- {
				s.starts[l] = acc
				acc += counts[l]
			}
		} else {
			for l := range counts {
				s.starts[l] = acc
				acc += counts[l]
			}
		}
		copy(counts, s.starts)
		scratch := s.scratch[:n]
		for _, p := range s.w {
			l := level[p]
			scratch[counts[l]] = p
			counts[l]++
		}
		for l := range s.starts {
			if lo, hi := s.starts[l], counts[l]; hi-lo > 1 {
				slices.Sort(scratch[lo:hi])
			}
		}
		copy(s.w, scratch)
		return
	}
	w := s.w
	for i := 1; i < n; i++ {
		j := i
		for j > 0 && s.less(j, j-1) {
			w[j], w[j-1] = w[j-1], w[j]
			j--
		}
	}
}

// sortWork sorts the forward worklist by (level, pid). Insertion sort keeps
// the hot path allocation-free (sort.Slice's closure escapes to the heap)
// and is fast on the small, mostly-ordered dirty sets incremental moves
// produce; batches that dirty most of the graph fall back to sort.Sort via
// sortHybrid.
//
//dtgp:hotpath
func (inc *Incremental) sortWork() {
	inc.fwdSorter.w = inc.work
	sortHybrid(&inc.fwdSorter)
}

// before is the worklist drain order: topological level, then pin id.
//
//dtgp:hotpath
//dtgp:index a=pin b=pin
func (inc *Incremental) before(a, b int32) bool {
	la, lb := inc.G.Level[a], inc.G.Level[b]
	if la != lb {
		return la < lb
	}
	return a < b
}

// insertPending inserts pid into the sorted pending region work[from:].
//
//dtgp:hotpath
//dtgp:index pid=pin
func (inc *Incremental) insertPending(from int, pid int32) {
	tail := inc.work[from:]
	i := from + sort.Search(len(tail), func(i int) bool { return !inc.before(tail[i], pid) })
	inc.work = append(inc.work, 0)
	copy(inc.work[i+1:], inc.work[i:])
	inc.work[i] = pid
}

// recomputeMetrics refreshes endpoint slacks and WNS/TNS from the
// maintained arrival and required-time state, mirroring
// Result.computeSlacks's setup side bitwise.
//
//dtgp:hotpath
func (inc *Incremental) recomputeMetrics() {
	g := inc.G
	if inc.EndpointSlack == nil {
		inc.EndpointSlack = make([]float64, len(g.Endpoints))
	}
	inc.WNS, inc.TNS = inf, 0
	any := false
	for ei := range g.Endpoints {
		ep := &g.Endpoints[ei]
		slack := inf
		for tr := Rise; tr <= Fall; tr++ {
			t := TIdx(ep.Pin, tr)
			if !inc.Valid[t] {
				continue
			}
			if !math.IsInf(inc.RATLate[t], 1) {
				if s := inc.RATLate[t] - inc.AT[t]; s < slack {
					slack = s
				}
			}
		}
		inc.EndpointSlack[ei] = slack
		if !math.IsInf(slack, 1) {
			any = true
			if slack < inc.WNS {
				inc.WNS = slack
			}
			if slack < 0 {
				inc.TNS += slack
			}
		}
	}
	if !any {
		inc.WNS = 0
	}
}
