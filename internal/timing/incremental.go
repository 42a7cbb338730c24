package timing

import (
	"slices"
	"sort"

	"dtgp/internal/bitset"
	"dtgp/internal/parallel"
)

// Incremental is an incremental late-mode STA engine in the spirit of the
// TAU 2015 contest (the paper's reference [30]): after a set of cells move,
// only the affected timing cone is re-evaluated — incident nets get fresh
// Elmore state, and arrival/slew changes propagate forward level by level
// until they damp out, then required-time changes propagate backward.
// Endpoint setup slacks (and WNS/TNS) stay current.
//
// It runs the same kernels as Analyze (exactSTA, late side only), from
// worklists instead of full level sweeps, so at Epsilon 0 its state is
// bit-identical to a from-scratch analysis over the same interconnect. It
// maintains late/setup analysis only, which is what placement-loop clients
// need: the net-weighting flow's exact STA on every reweight, and swap
// evaluation in timing-driven detailed placement.
type Incremental struct {
	G    *Graph
	Nets []NetState //dtgp:index domain=net

	// AT and Slew are the late arrival state (exact max aggregation).
	AT, Slew []float64 //dtgp:index domain=tnode
	Valid    []bool    //dtgp:index domain=tnode
	// RATLate is the maintained late required-time state, so per-pin
	// slacks (PinSlack) stay current after every MoveCells batch.
	RATLate []float64 //dtgp:index domain=tnode

	// EndpointSlack per endpoint index (min over transitions).
	EndpointSlack []float64 //dtgp:index domain=endp
	// WNS and TNS over endpoints.
	WNS, TNS float64

	// Epsilon below which an AT/slew/RAT change does not propagate further.
	Epsilon float64

	// sta is the kernel state the exported arrays above alias.
	sta exactSTA
	// Pending propagation state: fwd holds dirty pins drained in (level,
	// pid) order with inDirty their membership set, rat the required-time
	// pins drained in (-level, pid) order with membership inRatDirty. An
	// explicit worklist instead of a map keyed set makes the drain order
	// deterministic by construction (map iteration order would otherwise
	// leak into the re-evaluation schedule) and avoids per-move map churn.
	fwd, rat            workSorter
	inDirty, inRatDirty bitset.Set
	// netWork/netTouched collect the incident nets of a move batch in
	// first-touched order.
	netWork    []int32 //dtgp:index elem=net
	netTouched bitset.Set

	// rebuildFn re-extracts netWork[lo:hi] on the worker pool; stored once
	// so MoveCells stays allocation-free in steady state.
	rebuildFn func(w, lo, hi int)
}

// workSorter is a pin worklist kept in drain order: ascending (level,
// pid), or with levels descending for the required-time drain. Sorting a
// large list takes a counting-sort-by-level path over the persistent
// counts/starts/scratch buffers, so no call allocates.
type workSorter struct {
	w     []int32 //dtgp:index elem=pin
	level []int32 //dtgp:index domain=pin elem=level
	desc  bool
	// Counting-sort state: counts/starts are per-level (len = number of
	// levels), scratch holds the scattered worklist (cap = number of pins).
	counts, starts []int32 //dtgp:index domain=level
	scratch        []int32 //dtgp:index elem=pin
}

// before is the drain order: level (descending when desc), then pin id.
//
//dtgp:hotpath
//dtgp:index a=pin b=pin
func (s *workSorter) before(a, b int32) bool {
	la, lb := s.level[a], s.level[b]
	if la != lb {
		if s.desc {
			return la > lb
		}
		return la < lb
	}
	return a < b
}

// insert inserts pid into the sorted pending region w[from:].
//
//dtgp:hotpath
//dtgp:index pid=pin
func (s *workSorter) insert(from int, pid int32) {
	tail := s.w[from:]
	i := from + sort.Search(len(tail), func(i int) bool { return !s.before(tail[i], pid) })
	s.w = append(s.w, 0)
	copy(s.w[i+1:], s.w[i:])
	s.w[i] = pid
}

// sortCutoff is the worklist length above which the O(n²) insertion sort
// is abandoned for a counting sort by level. Small dirty sets (the
// incremental common case) stay on the insertion path, which is fast on the
// mostly-ordered sets moves produce; placement-loop batches that dirty most
// of the graph pay O(n + levels) plus a cheap pid sort per level bucket.
const sortCutoff = 256

// sort puts the worklist in drain order.
//
//dtgp:hotpath
func (s *workSorter) sort() {
	n := len(s.w)
	if n <= sortCutoff {
		w := s.w
		for i := 1; i < n; i++ {
			for j := i; j > 0 && s.before(w[j], w[j-1]); j-- {
				w[j], w[j-1] = w[j-1], w[j]
			}
		}
		return
	}
	level := s.level
	counts := s.counts
	for i := range counts {
		counts[i] = 0
	}
	for _, p := range s.w {
		counts[level[p]]++
	}
	// Segment starts in drain order; counts then doubles as the scatter
	// cursor.
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
}

// NewIncremental builds the engine and runs the initial full analysis: the
// late kernels swept level by level over every pin, each level in
// parallel, exactly as Analyze sweeps them.
func NewIncremental(g *Graph) *Incremental {
	n2 := 2 * len(g.D.Pins)
	nets := BuildNetStates(g)
	ForwardAll(nets)
	inc := &Incremental{
		G:             g,
		Nets:          nets,
		AT:            make([]float64, n2),
		Slew:          make([]float64, n2),
		Valid:         make([]bool, n2),
		RATLate:       make([]float64, n2),
		EndpointSlack: make([]float64, len(g.Endpoints)),
		Epsilon:       1e-6,
	}
	inc.sta = exactSTA{
		g: g, nets: nets,
		at: inc.AT, slew: inc.Slew, valid: inc.Valid, rat: inc.RATLate,
		endpointSlack: inc.EndpointSlack,
	}
	s := &inc.sta
	s.reset()
	inc.fwd.level = g.Level
	inc.rat.level = g.Level
	inc.rat.desc = true
	for _, ws := range []*workSorter{&inc.fwd, &inc.rat} {
		ws.counts = make([]int32, len(g.Levels))
		ws.starts = make([]int32, len(g.Levels))
		ws.scratch = make([]int32, len(g.D.Pins))
	}
	inc.inDirty.Grow(len(g.D.Pins))
	inc.inRatDirty.Grow(len(g.D.Pins))
	inc.netTouched.Grow(len(g.D.Nets))
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
	for _, level := range g.Levels {
		level := level
		parallel.ForCost(len(level), parallel.CostHeavy, func(i int) { s.arrive(level[i], 0) })
	}
	for li := len(g.Levels) - 1; li >= 0; li-- {
		level := g.Levels[li]
		parallel.ForCost(len(level), parallel.CostHeavy, func(i int) { s.require(level[i], 0) })
	}
	inc.WNS, inc.TNS = s.slacks()
	return inc
}

// Graph returns the timing graph (netweight.SlackSource).
func (inc *Incremental) Graph() *Graph { return inc.G }

// WorstSlack returns the maintained WNS (netweight.SlackSource).
func (inc *Incremental) WorstSlack() float64 { return inc.WNS }

// PinSlack returns the late (setup) slack at a (pin, transition), +Inf when
// the pin carries no constrained arrival — the same kernel as
// Result.PinSlack on the maintained state.
//
//dtgp:hotpath
//dtgp:index pid=pin
func (inc *Incremental) PinSlack(pid int32, tr Transition) float64 {
	return inc.sta.pinSlack(pid, tr)
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
	inc.WNS, inc.TNS = inc.sta.slacks()
}

// markDirty appends pid to the forward worklist unless it is already
// pending.
//
//dtgp:hotpath
//dtgp:index pid=pin
func (inc *Incremental) markDirty(pid int32) {
	if inc.inDirty.TryAdd(pid) {
		inc.fwd.w = append(inc.fwd.w, pid)
	}
}

// propagate drains the forward worklist in (level, pid) order,
// re-evaluating pins and expanding to fanouts when values changed. The
// order is total, so the drain schedule — not just the final values — is
// deterministic.
//
//dtgp:hotpath
func (inc *Incremental) propagate() {
	g := inc.G
	wl := &inc.fwd
	if len(wl.w) == 0 {
		return
	}
	wl.sort()
	for head := 0; head < len(wl.w); head++ {
		pid := wl.w[head]
		inc.inDirty.Remove(pid)
		if !inc.sta.arrive(pid, inc.Epsilon) {
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
					wl.insert(head+1, q)
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
					wl.insert(head+1, q)
				}
			}
		}
	}
	wl.w = wl.w[:0]
}

// markRATDirty appends pid to the required-time worklist unless already
// pending.
//
//dtgp:hotpath
//dtgp:index pid=pin
func (inc *Incremental) markRATDirty(pid int32) {
	if inc.inRatDirty.TryAdd(pid) {
		inc.rat.w = append(inc.rat.w, pid)
	}
}

// propagateRAT drains the required-time worklist in (-level, pid) order:
// deepest pins first, because a pin's RAT reads only its fanouts' RATs,
// which sit at strictly greater levels. Fanins discovered on a change are
// strictly shallower, so insertion always lands beyond head and the pending
// tail stays sorted. Runs after the forward drain (require reads final
// slews).
//
//dtgp:hotpath
func (inc *Incremental) propagateRAT() {
	g := inc.G
	wl := &inc.rat
	if len(wl.w) == 0 {
		return
	}
	wl.sort()
	for head := 0; head < len(wl.w); head++ {
		pid := wl.w[head]
		inc.inRatDirty.Remove(pid)
		if !inc.sta.require(pid, inc.Epsilon) {
			continue
		}
		// Fanins whose pulls read pid's RAT: the driver of pid's net when
		// pid is a sink, and the From pins of the cell arcs into pid when
		// pid is a cell output.
		if ni := g.NetOfSink[pid]; ni >= 0 {
			if q := g.D.Nets[ni].Driver; inc.inRatDirty.TryAdd(q) {
				wl.insert(head+1, q)
			}
		}
		for ai := range g.ArcsInto[pid] {
			if q := g.ArcsInto[pid][ai].FromPin; inc.inRatDirty.TryAdd(q) {
				wl.insert(head+1, q)
			}
		}
	}
	wl.w = wl.w[:0]
}
