package core

import (
	"fmt"
	"math"
	"time"

	"dtgp/internal/arena"
	"dtgp/internal/liberty"
	"dtgp/internal/parallel"
	"dtgp/internal/rctree"
	"dtgp/internal/timing"
)

// Options configure the differentiable timer.
type Options struct {
	// Gamma is the LSE smoothing strength (Eq. 5), in ps. The paper sets
	// it "to around 100".
	Gamma float64
	// SteinerPeriod is how often Steiner-tree topologies are rebuilt in the
	// full-refresh mode (Incremental == false): every SteinerPeriod
	// evaluations the topology is re-extracted, and in between stored
	// Steiner points ride along with their pins (§3.6, "every 10
	// iterations"). In incremental mode the global period is replaced by
	// per-net lazy rebuilds (DistortionLimit) plus the FencePeriod
	// full-refresh fence, and SteinerPeriod is ignored.
	SteinerPeriod int

	// Incremental enables the ε-displacement net refresh: on Evaluate only
	// nets whose pins moved beyond RefreshEps since their last refresh are
	// re-extracted and re-run through Elmore, with a full re-extraction
	// fence every FencePeriod evaluations. The forward and backward sweeps
	// always run in full. It is kept because refreshing unmoved nets is
	// pure waste once the placement converges, and because it is the
	// difftiming flow's Steiner policy (per-net lazy rebuilds); the zero
	// value selects the §3.6 fixed-period policy (SteinerPeriod) instead.
	Incremental bool
	// RefreshEps is the per-pin displacement threshold ε in DBU (Chebyshev
	// distance against the geometry of the net's last refresh) below which
	// a net keeps its cached Steiner/RC state. 0 means any bitwise movement
	// refreshes (exact); tests use that to check the refresh against the
	// full one.
	RefreshEps float64
	// DistortionLimit is the relative pin-bbox half-perimeter change that
	// triggers a per-net Steiner topology rebuild instead of the cheap
	// geometry slide. +Inf disables per-net rebuilds; <= 0 selects the
	// default (0.5) in incremental mode. Kept deliberately loose: scattered
	// per-net rebuilds are objective discontinuities mid-descent, so only
	// violently distorted nets rebuild between fences.
	DistortionLimit float64
	// FencePeriod is the periodic full-refresh fence in incremental mode:
	// every FencePeriod evaluations every moved net is re-extracted
	// (timing.RebuildNetStatesMoved), bounding drift from skipped sub-ε
	// movement and bounding Steiner staleness like §3.6's period does.
	// <= 0 selects the default (10).
	FencePeriod int

	// Arena, when non-nil, backs the timer's large SoA buffers (forward
	// state, gradients, CSR group storage, refresh flags) and the per-net
	// Steiner/RC buffers with chunked slab storage (DESIGN.md §12). All
	// values are bit-identical to the heap path — only the backing storage
	// differs. nil keeps the legacy plain-make allocation (-no-arena).
	Arena *arena.Arena
}

// DefaultOptions mirrors the paper's §4 hyperparameters, with the
// ε-displacement net refresh enabled: ε = 0.5 DBU, 50% distortion rebuild,
// and a fence every 10 evaluations (matching the §3.6 topology cadence, so
// staleness is bounded the same way).
func DefaultOptions() Options {
	return Options{
		Gamma:           100,
		SteinerPeriod:   10,
		Incremental:     true,
		RefreshEps:      0.5,
		DistortionLimit: 0.5,
		FencePeriod:     10,
	}
}

// PhaseTimes accumulates wall-clock nanoseconds per Evaluate phase, split so
// benchmarks can report forward and backward cost separately.
type PhaseTimes struct {
	// ForwardNS covers net refresh, Elmore forward and the level sweep.
	ForwardNS int64
	// ConeBuildNS is always 0: the timer has no cone-restricted backward.
	// It is kept because the _bench harness sums it into backward time.
	ConeBuildNS int64
	// BackwardNS covers seeding, the reverse sweep, Elmore backward and the
	// Fig. 4 redistribution.
	BackwardNS int64
}

// ConeStats counts the timer's backward passes. Every pass is the full
// reverse sweep; the struct keeps the two counters the _bench harness reads
// through place.Result.Cone.
type ConeStats struct {
	// SparsePasses is always 0: there is no cone-restricted backward.
	SparsePasses int
	// FullPasses counts backward passes.
	FullPasses int
}

// lutPair is the delay and output-transition table of one cell arc for one
// output transition.
type lutPair struct{ delay, trans *liberty.LUT }

// epState is the per-endpoint slack state of one objective evaluation.
type epState struct {
	s    [2]float64 // per transition slack (smoothed ATs)
	hard [2]float64 // hard-AT slack estimate
	ok   [2]bool
	sEp  float64
	wTr  [2]float64
}

// bwdGroup is one single-writer unit of the reverse sweep: the net-sink
// pins of one net, or the output pins of one cell, within one level. pins
// is a window into the timer's groupPins slab (see buildGroups); the struct
// itself carries a slice header, so []bwdGroup stays on the GC heap.
type bwdGroup struct {
	pins  []int32 //dtgp:index elem=pin
	isNet bool
}

// fwdSpan is one entry of the locality-aware forward schedule: the level
// range [lo, hi). A fused span runs its levels serially inline; an unfused
// span is a single large level dispatched on the pool in guided tiles.
type fwdSpan struct {
	lo, hi int32 //dtgp:index domain=level
	fused  bool
}

// fwdTileGrain is the minimum guided-chunk size for large forward levels,
// in pins. Each pin's kernel touches a handful of SoA arrays at 2·pid, so
// ~512 consecutive pins are a few cache-resident KB per array — large
// enough to amortise chunk claiming, small enough to load-balance the
// LUT-heavy tail.
const fwdTileGrain = 512

// fuseMaxLevel is the level size below which the pool would run the level
// serially anyway (parallel cutoff minParallelWork / CostHeavy = 2^15/512).
// Runs of such levels are fused into one serial span: same execution, no
// per-level dispatch barrier.
const fuseMaxLevel = 64

// Timer is the differentiable STA engine (Fig. 3). A single Evaluate call
// runs the full forward propagation (pin locations → Steiner/Elmore → level
// by level arrival/slew → smoothed slacks → TNS_γ, WNS_γ) and the full
// backward pass to per-cell location gradients. Only the net refresh is
// incremental (Options.Incremental); both level sweeps cover every pin.
//
// All per-iteration state lives in buffers owned by the Timer (or by
// per-worker scratch), so steady-state Evaluate calls are allocation-free;
// kernels are dispatched through the persistent worker pool with closures
// created once at construction.
type Timer struct {
	G    *timing.Graph
	Opts Options

	// Nets carries the Steiner/RC state: refreshed net by net when pins
	// move beyond RefreshEps, with the FencePeriod re-extraction fence, in
	// the default incremental mode; rebuilt every SteinerPeriod evaluations
	// and coordinate-refreshed otherwise.
	Nets []timing.NetState //dtgp:index domain=net

	// Forward state per (pin, transition) index; smoothed late analysis.
	AT, Slew []float64 //dtgp:index domain=tnode
	Valid    []bool    //dtgp:index domain=tnode
	// HardAT tracks the exact max alongside the LSE so WNS/TNS estimates
	// are available without a separate exact pass.
	HardAT []float64 //dtgp:index domain=tnode
	// LSE partition sums of the cell-output aggregation (Eq. 11); the
	// backward divides the taped numerators by them.
	atZ, slZ []float64 //dtgp:index domain=tnode

	// Candidate tape (DESIGN.md §4): one slot per (arc, input transition)
	// candidate of each cell-output tnode v, slots candOff[v] to
	// candOff[v+1]-1 in the order Eq. 11 aggregates them. The slot layout
	// is static (built in buildTape): candU is the candidate's input tnode
	// and candLUT indexes its (delay, transition) LUT pair. A slot is live
	// in an evaluation when Valid[candU] holds; for live slots the forward
	// records the LUT partials at the candidate's (slew, load) and the LSE
	// numerators exp((cand−max)/γ), which the Eq. 12 backward replays
	// without a LUT call or an exponential.
	candOff          []int32 //dtgp:index domain=tnode
	candU            []int32 //dtgp:index elem=tnode
	candLUT          []int32
	lutPairs         []lutPair
	candDDs, candDDl []float64 // ∂delay/∂slew, ∂delay/∂load
	candDSs, candDSl []float64 // ∂slew/∂slew, ∂slew/∂load
	candEAT, candESL []float64 // arrival and slew LSE numerators
	// loadRoot is each net's driver load, the load at its RC root (0 for
	// untimed nets), gathered once per forward so the cell-output kernel
	// does not chase each driver's Steiner/RC state. Its adjoint is
	// gLoadRoot.
	loadRoot []float64 //dtgp:index domain=net

	// Backward accumulators.
	gAT, gSlew []float64 //dtgp:index domain=tnode
	// gDelayNode is per net, per Steiner node: ∂f/∂Delay; gImpSq is per
	// net, per node: ∂f/∂Impulse²; gLoadRoot is per net: ∂f/∂Load(root).
	gDelayNode [][]float64 //dtgp:index domain=net
	gImpSq     [][]float64 //dtgp:index domain=net
	gLoadRoot  []float64   //dtgp:index domain=net
	// netGrads are persistent per-net Elmore gradient buffers reused by
	// BackwardInto; netGradUsed marks nets touched this pass.
	netGrads    []*rctree.Grad //dtgp:index domain=net
	netGradUsed []bool         //dtgp:index domain=net

	// Early-mode (hold) state, allocated on first EvaluateHold.
	hold            *holdState
	gDelayNodeEarly [][]float64 //dtgp:index domain=net
	gImpSqEarly     [][]float64 //dtgp:index domain=net
	gLoadRootEarly  []float64   //dtgp:index domain=net

	// Outputs of Evaluate.
	CellGradX, CellGradY []float64 //dtgp:index domain=cell
	// SmTNS/SmWNS are the smoothed objective values TNS_γ, WNS_γ;
	// EstTNS/EstWNS are hard-max estimates from the same pass. SmTHS and
	// EstTHS report the hold objective when EvaluateHold is used.
	SmTNS, SmWNS   float64
	EstTNS, EstWNS float64
	SmTHS, EstTHS  float64

	evalCount int
	// netGradSized records that preSizeNetGrad already carved the per-net
	// accumulators from the arena (the lazy heap growth in resetTasks
	// remains as the no-arena path and the fallback for grown nets).
	netGradSized bool

	// Precomputed structure.
	// bwdGroups holds, per level, the single-writer units of the reverse
	// sweep: net-sink pins grouped by net first, then cell-output pins
	// grouped by cell (the write sets are disjoint: net groups update
	// driver pins and per-net accumulators, cell groups update cell-input
	// pins, so both kinds run in one parallel phase per level). Storage is
	// CSR-style: every group's pin list is a window into the groupPins
	// slab and the per-level group slices are windows into one flat group
	// array — the jagged shape is only in the slice headers.
	bwdGroups [][]bwdGroup //dtgp:index domain=level
	groupPins []int32      //dtgp:index elem=pin
	// fwdSpans is the locality-aware forward schedule: maximal runs of
	// consecutive small levels are fused into one serial span (they are
	// below the pool's parallel cutoff, so fusing removes per-level
	// dispatch barriers without changing what runs where), and each large
	// level is dispatched on the pool in cache-sized contiguous tiles.
	fwdSpans []fwdSpan

	// Stored kernel closures. They are built once in NewTimer and capture
	// only the receiver; per-call state is passed through the cur* fields,
	// keeping the steady state free of closure allocations.
	curLevel   []int32 //dtgp:index elem=pin
	curBwd     []bwdGroup
	fwdFn      func(w, lo, hi int)
	bwdFn      func(i int)
	loadFn     func(w, lo, hi int)
	elmoreFn   func(w, lo, hi int)
	refreshFn  func(w, lo, hi int)
	fwdNetsFn  func(w, lo, hi int)
	resetTasks []func()

	// Net-refresh state (Opts.Incremental). netMoved is the per-net
	// movement flag written by the parallel scan (single writer per index),
	// compacted into dirtyNets, the nets the lazy refresh touches.
	netMoved      []bool  //dtgp:index domain=net
	dirtyNets     []int32 //dtgp:index elem=net
	compactor     *parallel.Compactor
	netMovedFn    func(w, lo, hi int)
	refreshLazyFn func(w, lo, hi int)

	// Objective scratch.
	epStates []epState //dtgp:index domain=endp
	sEps     []float64
	epIdx    []int //dtgp:index elem=endp

	// backwardPasses counts backward passes (reported via Cone).
	backwardPasses int

	// Phase is the cumulative per-phase wall-clock split of Evaluate calls.
	// Benchmarks may reset it between warm-up and measurement.
	Phase PhaseTimes

	clockSlew float64
	period    float64
	// derateLate and derateEarly scale setup and hold arc delays (and so
	// their delay partials) per set_timing_derate, as in the exact STA;
	// like clockSlew and period they are read once, in NewTimer.
	derateLate, derateEarly float64
}

// NewTimer builds a differentiable timer over a timing graph.
func NewTimer(g *timing.Graph, opts Options) *Timer {
	if opts.Gamma <= 0 {
		opts.Gamma = 100
	}
	if opts.SteinerPeriod <= 0 {
		opts.SteinerPeriod = 10
	}
	if opts.Incremental {
		if opts.DistortionLimit <= 0 {
			opts.DistortionLimit = 0.5
		}
		if opts.FencePeriod <= 0 {
			opts.FencePeriod = 10
		}
		if opts.RefreshEps < 0 {
			opts.RefreshEps = 0
		}
	}
	// The big per-tnode/per-net/per-cell SoA arrays carve from the arena
	// when one is configured (a nil arena is plain make, the legacy path).
	// Slices of pointer-bearing types (netGrads, epStates) stay on the GC
	// heap by construction: the arena's type set rejects them.
	a := opts.Arena
	n2 := 2 * len(g.D.Pins)
	t := &Timer{
		G:           g,
		Opts:        opts,
		AT:          arena.Make[float64](a, n2),
		Slew:        arena.Make[float64](a, n2),
		Valid:       arena.Make[bool](a, n2),
		HardAT:      arena.Make[float64](a, n2),
		atZ:         arena.Make[float64](a, n2),
		slZ:         arena.Make[float64](a, n2),
		gAT:         arena.Make[float64](a, n2),
		gSlew:       arena.Make[float64](a, n2),
		loadRoot:    arena.Make[float64](a, len(g.D.Nets)),
		gLoadRoot:   arena.Make[float64](a, len(g.D.Nets)),
		netGrads:    make([]*rctree.Grad, len(g.D.Nets)),
		netGradUsed: arena.Make[bool](a, len(g.D.Nets)),
		CellGradX:   arena.Make[float64](a, len(g.D.Cells)),
		CellGradY:   arena.Make[float64](a, len(g.D.Cells)),
		epStates:    make([]epState, len(g.Endpoints)),
		clockSlew:   g.ClockSlew(),
		period:      g.Period(),
		derateLate:  g.DerateLate(),
		derateEarly: g.DerateEarly(),
	}
	t.buildGroups()
	t.buildSchedule()
	t.buildTape()
	t.buildKernels()
	if opts.Incremental {
		t.buildIncState()
	}
	return t
}

// Reanchor resets the evaluation cadence so the next Evaluate runs the
// full-refresh fence: every bitwise-moved net is re-extracted. The forward
// and backward sweeps are always full and read no state from earlier
// evaluations, so the net geometry and the fence phase are the only history
// in the timer. After the fence the timer's observable behaviour — outputs
// and all subsequent evaluations — is bitwise identical to a freshly
// constructed timer evaluated at the same cell positions.
//
// The durable-checkpoint path calls this after every committed save, in the
// original run and in resumed runs alike, which is what makes
// kill-at-any-checkpoint + resume bit-identical to the uninterrupted run: a
// resumed run's fresh timer and the original run's re-anchored warm timer
// start their next evaluation from equal state.
func (t *Timer) Reanchor() { t.evalCount = 0 }

// Cone returns the backward-pass counters.
func (t *Timer) Cone() ConeStats {
	return ConeStats{FullPasses: t.backwardPasses}
}

// buildIncState allocates the net-refresh buffers up front so the
// incremental steady state never grows them.
func (t *Timer) buildIncState() {
	g := t.G
	a := t.Opts.Arena
	t.netMoved = arena.Make[bool](a, len(g.D.Nets))
	t.dirtyNets = arena.Make[int32](a, len(g.D.Nets))
	t.compactor = parallel.NewCompactor(4 * parallel.Workers())
}

// buildGroups lays the reverse-sweep groups out in CSR form: one global
// groupPins slab holds every grouped pin, one flat []bwdGroup holds every
// group, and bwdGroups[li] is a window into it. Two passes over the
// levelisation — count, then fill — replace the per-level maps of the old
// jagged build with epoch-stamped direct-indexed scratch; group order is
// unchanged (per level: nets in first-seen pin order, then cells in
// first-seen pin order, each group's pins in level order), so the parallel
// schedule and every serial fallback order are bit-identical.
func (t *Timer) buildGroups() {
	g := t.G
	d := g.D
	nLevels := len(g.Levels)

	// Epoch-stamped scratch: xEpoch[key] == stamp means key was already
	// seen in the level the stamp encodes, and xIdxOf[key] is its group
	// index local to that level's net or cell groups. Pass 2 re-walks the
	// levels with stamps offset by nLevels, so no re-initialisation is
	// needed between passes.
	netEpoch := make([]int32, len(d.Nets))
	cellEpoch := make([]int32, len(d.Cells))
	for i := range netEpoch {
		netEpoch[i] = -1
	}
	for i := range cellEpoch {
		cellEpoch[i] = -1
	}
	netIdxOf := make([]int32, len(d.Nets))
	cellIdxOf := make([]int32, len(d.Cells))

	// Pass 1: per-group pin counts in final group order, plus per-level
	// group counts (net groups first, then cell groups).
	var sizes []int32
	levelBase := make([]int32, nLevels+1) // group id of each level's first group
	netGroupsOf := make([]int32, nLevels) // net-group count per level
	netScratch := make([]int32, 0, 64)    // per-level net-group sizes
	cellScratch := make([]int32, 0, 64)   // per-level cell-group sizes
	for li, level := range g.Levels {
		stamp := int32(li)
		netScratch, cellScratch = netScratch[:0], cellScratch[:0]
		for _, pid := range level {
			switch {
			case g.IsStart[pid]:
			case g.IsNetSink[pid]:
				if ni := g.NetOfSink[pid]; ni >= 0 {
					if netEpoch[ni] != stamp {
						netEpoch[ni] = stamp
						netIdxOf[ni] = int32(len(netScratch))
						netScratch = append(netScratch, 0)
					}
					netScratch[netIdxOf[ni]]++
				}
			case g.IsCellOut[pid]:
				ci := d.Pins[pid].Cell
				if cellEpoch[ci] != stamp {
					cellEpoch[ci] = stamp
					cellIdxOf[ci] = int32(len(cellScratch))
					cellScratch = append(cellScratch, 0)
				}
				cellScratch[cellIdxOf[ci]]++
			}
		}
		levelBase[li] = int32(len(sizes))
		netGroupsOf[li] = int32(len(netScratch))
		sizes = append(sizes, netScratch...)
		sizes = append(sizes, cellScratch...)
	}
	totalGroups := len(sizes)
	levelBase[nLevels] = int32(totalGroups)

	// Prefix-sum the group sizes into slab offsets.
	offsets := make([]int32, totalGroups+1)
	for i, n := range sizes {
		offsets[i+1] = offsets[i] + n
	}
	totalPins := int(offsets[totalGroups])

	t.groupPins = arena.Make[int32](t.Opts.Arena, totalPins)
	groups := make([]bwdGroup, totalGroups) // slice headers → GC heap
	t.bwdGroups = make([][]bwdGroup, nLevels)
	fill := sizes // reuse as per-group fill cursors
	for i := range fill {
		fill[i] = 0
	}

	// Pass 2: place each grouped pin at its slab position.
	for li, level := range g.Levels {
		stamp := int32(nLevels + li)
		base := levelBase[li]
		nNet := netGroupsOf[li]
		// Local group indices restart at 0 each level, mirroring pass 1.
		netScratch, cellScratch = netScratch[:0], cellScratch[:0]
		for _, pid := range level {
			var gi int32 = -1
			switch {
			case g.IsStart[pid]:
			case g.IsNetSink[pid]:
				if ni := g.NetOfSink[pid]; ni >= 0 {
					if netEpoch[ni] != stamp {
						netEpoch[ni] = stamp
						netIdxOf[ni] = int32(len(netScratch))
						netScratch = append(netScratch, 0)
					}
					gi = base + netIdxOf[ni]
				}
			case g.IsCellOut[pid]:
				ci := d.Pins[pid].Cell
				if cellEpoch[ci] != stamp {
					cellEpoch[ci] = stamp
					cellIdxOf[ci] = int32(len(cellScratch))
					cellScratch = append(cellScratch, 0)
				}
				gi = base + nNet + cellIdxOf[ci]
			}
			if gi >= 0 {
				t.groupPins[offsets[gi]+fill[gi]] = pid
				fill[gi]++
			}
		}
		for k := base; k < levelBase[li+1]; k++ {
			lo, hi := offsets[k], offsets[k+1]
			groups[k] = bwdGroup{
				pins:  t.groupPins[lo:hi:hi],
				isNet: k-base < nNet,
			}
		}
		t.bwdGroups[li] = groups[base:levelBase[li+1]:levelBase[li+1]]
	}
}

// buildSchedule precomputes the forward span list; see fwdSpan.
func (t *Timer) buildSchedule() {
	levels := t.G.Levels
	for li := 0; li < len(levels); {
		if len(levels[li]) < fuseMaxLevel {
			j := li + 1
			for j < len(levels) && len(levels[j]) < fuseMaxLevel {
				j++
			}
			t.fwdSpans = append(t.fwdSpans, fwdSpan{lo: int32(li), hi: int32(j), fused: true})
			li = j
		} else {
			t.fwdSpans = append(t.fwdSpans, fwdSpan{lo: int32(li), hi: int32(li + 1)})
			li++
		}
	}
}

// buildTape lays out the candidate tape in tnode order: every cell-output
// tnode gets one slot per arc into its pin and input transition the arc's
// unateness admits, in ArcsInto order. Each distinct arc gets two lutPairs
// (rise, then fall output), so the slots index a table of a few dozen
// entries instead of holding pointers.
func (t *Timer) buildTape() {
	g := t.G
	a := t.Opts.Arena
	n2 := 2 * len(g.D.Pins)
	t.candOff = arena.Make[int32](a, n2+1)
	var n int32
	for v := 0; v < n2; v++ {
		t.candOff[v] = n
		pid, outTr := int32(v/2), timing.Transition(v%2)
		if !g.IsCellOut[pid] {
			continue
		}
		for _, ar := range g.ArcsInto[pid] {
			for _, inTr := range timing.ArcCombos(ar.Arc.Unate, outTr) {
				if inTr >= 0 {
					n++
				}
			}
		}
	}
	t.candOff[n2] = n
	t.candU = arena.Make[int32](a, int(n))
	t.candLUT = arena.Make[int32](a, int(n))
	pairOf := map[*liberty.TimingArc]int32{}
	for pi := range g.D.Pins {
		pid := int32(pi)
		if !g.IsCellOut[pid] {
			continue
		}
		next := [2]int32{t.candOff[timing.TIdx(pid, timing.Rise)], t.candOff[timing.TIdx(pid, timing.Fall)]}
		for _, ar := range g.ArcsInto[pid] {
			base, ok := pairOf[ar.Arc]
			if !ok {
				base = int32(len(t.lutPairs))
				pairOf[ar.Arc] = base
				for outTr := timing.Rise; outTr <= timing.Fall; outTr++ {
					dl, tl := timing.DelayTable(ar.Arc, outTr)
					t.lutPairs = append(t.lutPairs, lutPair{dl, tl})
				}
			}
			for outTr := timing.Rise; outTr <= timing.Fall; outTr++ {
				for _, inTr := range timing.ArcCombos(ar.Arc.Unate, outTr) {
					if inTr >= 0 {
						k := next[outTr]
						t.candU[k] = timing.TIdx(ar.FromPin, timing.Transition(inTr))
						t.candLUT[k] = base + int32(outTr)
						next[outTr]++
					}
				}
			}
		}
	}
	t.candDDs = arena.Make[float64](a, int(n))
	t.candDDl = arena.Make[float64](a, int(n))
	t.candDSs = arena.Make[float64](a, int(n))
	t.candDSl = arena.Make[float64](a, int(n))
	t.candEAT = arena.Make[float64](a, int(n))
	t.candESL = arena.Make[float64](a, int(n))
}

// buildKernels creates the stored dispatch closures and reset tasks.
func (t *Timer) buildKernels() {
	t.fwdFn = func(_, lo, hi int) {
		g := t.G
		level := t.curLevel
		for i := lo; i < hi; i++ {
			pid := level[i]
			switch {
			case g.IsStart[pid]:
			case g.IsNetSink[pid]:
				t.forwardNetSink(pid)
			case g.IsCellOut[pid]:
				t.forwardCellOut(pid)
			}
		}
	}
	t.bwdFn = func(i int) {
		grp := &t.curBwd[i]
		if grp.isNet {
			for _, pid := range grp.pins {
				t.backwardNetSink(pid)
			}
		} else {
			for _, pid := range grp.pins {
				t.backwardCellOut(pid)
			}
		}
	}
	t.loadFn = func(_, lo, hi int) {
		for ni := lo; ni < hi; ni++ {
			if ns := &t.Nets[ni]; ns.Tree != nil {
				t.loadRoot[ni] = ns.DriverLoad()
			} else {
				t.loadRoot[ni] = 0
			}
		}
	}
	t.elmoreFn = t.elmoreBackward
	t.refreshFn = func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			timing.RefreshNetState(t.G, &t.Nets[i])
		}
	}
	t.fwdNetsFn = func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			if t.Nets[i].RC != nil {
				t.Nets[i].RC.Forward()
			}
		}
	}
	t.netMovedFn = func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			t.netMoved[i] = timing.NetMoved(t.G, &t.Nets[i], t.Opts.RefreshEps)
		}
	}
	t.refreshLazyFn = func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			ns := &t.Nets[t.dirtyNets[i]]
			timing.RefreshNetStateLazy(t.G, ns, t.Opts.DistortionLimit)
			if ns.RC != nil {
				ns.RC.Forward()
			}
		}
	}
	t.resetTasks = []func(){
		func() {
			for i := range t.gAT {
				t.gAT[i] = 0
				t.gSlew[i] = 0
			}
		},
		func() {
			for i := range t.gLoadRoot {
				t.gLoadRoot[i] = 0
				t.netGradUsed[i] = false
			}
			for i := range t.CellGradX {
				t.CellGradX[i] = 0
				t.CellGradY[i] = 0
			}
		},
		func() {
			if t.gDelayNode == nil {
				t.gDelayNode = make([][]float64, len(t.G.D.Nets))
				t.gImpSq = make([][]float64, len(t.G.D.Nets))
			}
			for ni := range t.Nets {
				ns := &t.Nets[ni]
				if ns.Tree == nil {
					t.gDelayNode[ni] = nil
					t.gImpSq[ni] = nil
					continue
				}
				n := ns.Tree.NumNodes()
				if cap(t.gDelayNode[ni]) < n {
					t.gDelayNode[ni] = make([]float64, n)
					t.gImpSq[ni] = make([]float64, n)
				} else {
					t.gDelayNode[ni] = t.gDelayNode[ni][:n]
					t.gImpSq[ni] = t.gImpSq[ni][:n]
					for j := 0; j < n; j++ {
						t.gDelayNode[ni][j] = 0
						t.gImpSq[ni][j] = 0
					}
				}
			}
		},
	}
}

// preSizeNetGrad carves the per-net backward accumulators (gDelayNode,
// gImpSq) from the arena at each net's Steiner-node capacity bound, so the
// cap checks in resetTasks never allocate. Called serially right after the
// first net-state build (the arena is not thread-safe); a nil arena keeps
// the lazy heap growth in resetTasks.
func (t *Timer) preSizeNetGrad() {
	a := t.Opts.Arena
	if a == nil || t.netGradSized {
		return
	}
	t.netGradSized = true
	d := t.G.D
	t.gDelayNode = make([][]float64, len(d.Nets))
	t.gImpSq = make([][]float64, len(d.Nets))
	for ni := range d.Nets {
		if t.Nets[ni].Tree == nil {
			continue
		}
		m := 2*len(d.Nets[ni].Pins) - 2
		t.gDelayNode[ni] = arena.MakeCap[float64](a, 0, m)
		t.gImpSq[ni] = arena.MakeCap[float64](a, 0, m)
	}
}

// refreshNets updates or rebuilds the Steiner/RC state and runs the Elmore
// forward passes (Fig. 3 stages 1-2). In incremental mode only nets whose
// pins moved beyond ε are touched; otherwise every net is refreshed and the
// topology is rebuilt every SteinerPeriod evaluations (§3.6).
//
//dtgp:hotpath
func (t *Timer) refreshNets() {
	if t.Opts.Incremental {
		t.refreshNetsIncremental()
		return
	}
	if t.Nets == nil {
		t.Nets = timing.BuildNetStatesArena(t.G, t.Opts.Arena)
		t.preSizeNetGrad()
	} else if t.evalCount%t.Opts.SteinerPeriod == 0 {
		// Periodic topology rebuild reuses each net's buffers in place.
		timing.RebuildNetStates(t.G, t.Nets)
	} else {
		parallel.ForGuided(len(t.Nets), 16, parallel.CostDefault, t.refreshFn)
	}
	t.evalCount++
	parallel.ForGuided(len(t.Nets), 16, parallel.CostDefault, t.fwdNetsFn)
}

// refreshNetsIncremental is the displacement-driven refresh: a parallel scan
// flags nets whose pins moved beyond RefreshEps against the geometry of
// their last refresh, the flags are compacted into dirtyNets, and only those
// nets get the lazy refresh-or-rebuild plus Elmore forward. The first
// evaluation and every FencePeriod-th evaluation instead refresh everything
// (the fence that bounds sub-ε drift).
//
//dtgp:hotpath
func (t *Timer) refreshNetsIncremental() {
	if t.Nets == nil {
		t.Nets = timing.BuildNetStatesArena(t.G, t.Opts.Arena)
		t.preSizeNetGrad()
		t.evalCount++
		parallel.ForGuided(len(t.Nets), 16, parallel.CostDefault, t.fwdNetsFn)
		return
	}
	if t.evalCount%t.Opts.FencePeriod == 0 {
		// Moved-only fence: nets that are bitwise unchanged since their
		// last full extraction already hold exactly the state a rebuild
		// would produce, so only changed nets are re-extracted (and
		// forwarded inside the same sweep). Bit-identical to the full
		// rebuild, but O(moved nets) in a converging placement.
		timing.RebuildNetStatesMoved(t.G, t.Nets)
		t.evalCount++
		return
	}
	t.evalCount++
	parallel.ForGuided(len(t.Nets), 16, parallel.CostLight, t.netMovedFn)
	t.dirtyNets = t.compactor.CompactBool(t.dirtyNets, t.netMoved, parallel.CostTrivial)
	parallel.ForGuided(len(t.dirtyNets), 4, parallel.CostHeavy, t.refreshLazyFn)
}

// Evaluate runs one forward+backward pass. t1 and t2 weight the TNS and WNS
// objectives (Eq. 6). It returns the timing objective value
// f = −t1·TNS_γ − t2·WNS_γ (non-negative when violations exist); its
// gradient with respect to cell positions is left in CellGradX/CellGradY.
//
//dtgp:hotpath
func (t *Timer) Evaluate(t1, t2 float64) float64 {
	start := time.Now()
	t.refreshNets()
	t.forward()
	t.Phase.ForwardNS += time.Since(start).Nanoseconds()
	return t.backward(t1, t2)
}

// EvaluateValueOnly runs just the forward pass (for tests and finite
// difference checks) and returns f without touching gradients.
//
//dtgp:hotpath
func (t *Timer) EvaluateValueOnly(t1, t2 float64) float64 {
	t.refreshNets()
	t.forward()
	f, _ := t.objective(t1, t2, false)
	return f
}

// ExactResult runs the exact STA engine on the timer's current Steiner/RC
// state (sharing the interconnect model, so exact and smoothed metrics are
// directly comparable).
func (t *Timer) ExactResult() *timing.Result {
	if t.Nets == nil {
		t.Nets = timing.BuildNetStates(t.G)
		timing.ForwardAll(t.Nets)
	}
	return timing.AnalyzeWithNets(t.G, t.Nets)
}

// ---------------------------------------------------------------------------
// Forward pass (§3.3 steps 3-4).

//dtgp:hotpath
func (t *Timer) forward() {
	parallel.ForGuided(len(t.Nets), 256, parallel.CostLight, t.loadFn)
	ninf := math.Inf(-1)
	for i := range t.AT {
		t.AT[i] = ninf
		t.HardAT[i] = ninf
		t.Slew[i] = 0
		t.Valid[i] = false
		t.atZ[i] = 0
		t.slZ[i] = 0
	}

	// Starts.
	g := t.G
	for k, pid := range g.Starts {
		at, slew := g.StartAT[k], g.StartSlew[k]
		for tr := timing.Rise; tr <= timing.Fall; tr++ {
			ti := timing.TIdx(pid, tr)
			t.AT[ti], t.HardAT[ti] = at, at
			t.Slew[ti] = slew
			t.Valid[ti] = true
		}
	}

	// Walk the precomputed span schedule: fused spans of small levels run
	// serially inline (no dispatch barrier per level), large levels are
	// dispatched in cache-sized contiguous tiles. Level pin lists are in
	// ascending pin order (the levelisation appends pins in index order),
	// so tiles touch the SoA arrays in memory order. Cell-output pins do
	// several LUT evaluations each, hence CostHeavy.
	for _, sp := range t.fwdSpans {
		if sp.fused {
			for li := sp.lo; li < sp.hi; li++ {
				t.curLevel = g.Levels[li]
				t.fwdFn(0, 0, len(t.curLevel))
			}
			continue
		}
		t.curLevel = g.Levels[sp.lo]
		parallel.ForGuided(len(t.curLevel), fwdTileGrain, parallel.CostHeavy, t.fwdFn)
	}
}

// forwardNetSink applies Eq. 9 per transition, with the late derate on
// the Elmore delay. HardAT is the hard (non-smoothed) arrival used only for
// reporting and is deliberately not differentiated.
//
//dtgp:hotpath
//dtgp:forward(netprop)
//dtgp:nondiff(HardAT)
//dtgp:index pid=pin
func (t *Timer) forwardNetSink(pid int32) {
	g := t.G
	ni := g.NetOfSink[pid]
	if ni < 0 {
		return
	}
	ns := &t.Nets[ni]
	if ns.Tree == nil {
		return
	}
	driver := g.D.Nets[ni].Driver
	k := int(g.PosOfSink[pid])
	delay := ns.SinkDelay(k) * t.derateLate
	imp := ns.SinkImpulse(k)
	for tr := timing.Rise; tr <= timing.Fall; tr++ {
		u, v := timing.TIdx(driver, tr), timing.TIdx(pid, tr)
		if !t.Valid[u] {
			continue
		}
		t.AT[v] = t.AT[u] + delay
		t.HardAT[v] = t.HardAT[u] + delay
		t.Slew[v] = math.Sqrt(t.Slew[u]*t.Slew[u] + imp*imp)
		t.Valid[v] = true
	}
}

// forwardCellOut applies Eq. 11: LUT delays (late-derated) aggregated with
// LSE over all (input pin, input transition) candidates, walked through the
// tape slots.
// Each live candidate's LUTs are evaluated once, with their partials, into
// its slot; the stable two-pass LSE takes the maxima in the first pass and
// replaces the slot's candidate values with the LSE numerators in the
// second. HardAT is the hard (non-smoothed) arrival, deliberately not
// differentiated. candEAT/candESL are read back only by the second pass:
// they hold this call's own candidate values, whose adjoints reach AT,
// Slew and the load through gAT, gSlew and gLoadRoot.
//
//dtgp:hotpath
//dtgp:forward(cellarc)
//dtgp:nondiff(HardAT, candEAT, candESL)
//dtgp:index pid=pin
func (t *Timer) forwardCellOut(pid int32) {
	gamma := t.Opts.Gamma
	load := 0.0
	if net := t.G.D.Pins[pid].Net; net >= 0 {
		load = t.loadRoot[net]
	}
	for outTr := timing.Rise; outTr <= timing.Fall; outTr++ {
		v := timing.TIdx(pid, outTr)
		lo, hi := t.candOff[v], t.candOff[v+1]
		atM, slM := math.Inf(-1), math.Inf(-1)
		hardBest := math.Inf(-1)
		live := false
		for k := lo; k < hi; k++ {
			u := t.candU[k]
			if !t.Valid[u] {
				continue
			}
			lp := &t.lutPairs[t.candLUT[k]]
			d, dDds, dDdl := lp.delay.EvalGrad(t.Slew[u], load)
			d, dDds, dDdl = d*t.derateLate, dDds*t.derateLate, dDdl*t.derateLate
			s, dSds, dSdl := lp.trans.EvalGrad(t.Slew[u], load)
			t.candDDs[k], t.candDDl[k] = dDds, dDdl
			t.candDSs[k], t.candDSl[k] = dSds, dSdl
			at := t.AT[u] + d
			t.candEAT[k], t.candESL[k] = at, s
			if at > atM {
				atM = at
			}
			if s > slM {
				slM = s
			}
			if h := t.HardAT[u] + (at - t.AT[u]); h > hardBest {
				hardBest = h
			}
			live = true
		}
		if !live {
			continue
		}
		var atZ, slZ float64
		for k := lo; k < hi; k++ {
			if !t.Valid[t.candU[k]] {
				continue
			}
			eAT := math.Exp((t.candEAT[k] - atM) / gamma)
			eSL := math.Exp((t.candESL[k] - slM) / gamma)
			t.candEAT[k], t.candESL[k] = eAT, eSL
			atZ += eAT
			slZ += eSL
		}
		t.AT[v] = atM + gamma*math.Log(atZ)
		t.Slew[v] = slM + gamma*math.Log(slZ)
		t.HardAT[v] = hardBest
		t.atZ[v], t.slZ[v] = atZ, slZ
		t.Valid[v] = true
	}
}

// ---------------------------------------------------------------------------
// Objective and backward pass (§3.3 step 5).

// softMin2Grad is the two-input smooth minimum with gradient weights,
// arithmetically identical to SoftMinGrad(gamma, x0, x1) but allocation-free.
//
//dtgp:hotpath
func softMin2Grad(gamma, x0, x1 float64) (v, w0, w1 float64) {
	n0, n1 := -x0, -x1
	m := n0
	if n1 > m {
		m = n1
	}
	w0 = math.Exp((n0 - m) / gamma)
	w1 = math.Exp((n1 - m) / gamma)
	z := w0 + w1
	return -(m + gamma*math.Log(z)), w0 / z, w1 / z
}

// objective computes the smoothed slack objective; when seed is true it
// additionally spreads ∂f/∂slack into gAT/gSlew (the endpoint seeds of the
// reverse sweep). All scratch is Timer-owned.
//
//dtgp:hotpath
func (t *Timer) objective(t1, t2 float64, seed bool) (float64, bool) {
	g := t.G
	gamma := t.Opts.Gamma

	for ei := range g.Endpoints {
		ep := &g.Endpoints[ei]
		st := &t.epStates[ei]
		*st = epState{}
		for tr := timing.Rise; tr <= timing.Fall; tr++ {
			ti := timing.TIdx(ep.Pin, tr)
			if !t.Valid[ti] {
				continue
			}
			rat, ok := t.requiredAt(ep, tr, ti)
			if !ok {
				continue
			}
			st.s[tr] = rat - t.AT[ti]
			st.hard[tr] = rat - t.HardAT[ti]
			st.ok[tr] = true
		}
		switch {
		case st.ok[0] && st.ok[1]:
			st.sEp, st.wTr[0], st.wTr[1] = softMin2Grad(gamma, st.s[0], st.s[1])
		case st.ok[0]:
			st.sEp, st.wTr[0] = st.s[0], 1
		case st.ok[1]:
			st.sEp, st.wTr[1] = st.s[1], 1
		default:
			st.sEp = math.Inf(1)
		}
	}

	// Smoothed TNS (Σ softneg) and WNS (softmin over endpoints), plus the
	// hard estimates.
	smTNS, estTNS := 0.0, 0.0
	estWNS := math.Inf(1)
	t.sEps = t.sEps[:0]
	t.epIdx = t.epIdx[:0]
	for ei := range t.epStates {
		st := &t.epStates[ei]
		if math.IsInf(st.sEp, 1) {
			continue
		}
		sn, _ := SoftNegGrad(gamma, st.sEp)
		smTNS += sn
		t.sEps = append(t.sEps, st.sEp)
		t.epIdx = append(t.epIdx, ei)
		hardEp := math.Inf(1)
		for tr := 0; tr < 2; tr++ {
			if st.ok[tr] && st.hard[tr] < hardEp {
				hardEp = st.hard[tr]
			}
		}
		if hardEp < estWNS {
			estWNS = hardEp
		}
		if hardEp < 0 {
			estTNS += hardEp
		}
	}
	if len(t.sEps) == 0 {
		t.SmTNS, t.SmWNS, t.EstTNS, t.EstWNS = 0, 0, 0, 0
		return 0, false
	}
	// Inline softmin over endpoint slacks (same shifted form and summation
	// order as SoftMinGrad, with the weights recomputed in the seed loop).
	wnsM := math.Inf(-1)
	for _, s := range t.sEps {
		if -s > wnsM {
			wnsM = -s
		}
	}
	wnsZ := 0.0
	for _, s := range t.sEps {
		wnsZ += math.Exp((-s - wnsM) / gamma)
	}
	smWNS := -(wnsM + gamma*math.Log(wnsZ))
	t.SmTNS, t.SmWNS = smTNS, smWNS
	t.EstTNS, t.EstWNS = estTNS, estWNS

	f := -t1*smTNS - t2*smWNS
	if seed {
		for _, ei := range t.epIdx {
			st := &t.epStates[ei]
			ep := &g.Endpoints[ei]
			_, dTNS := SoftNegGrad(gamma, st.sEp)
			wEp := math.Exp((-st.sEp-wnsM)/gamma) / wnsZ
			dfdsEp := -t1*dTNS - t2*wEp
			for tr := timing.Rise; tr <= timing.Fall; tr++ {
				if !st.ok[tr] {
					continue
				}
				ti := timing.TIdx(ep.Pin, tr)
				dfds := dfdsEp * st.wTr[tr]
				// slack = RAT − AT with RAT = T − setup(clockSlew, Slew).
				t.gAT[ti] -= dfds
				if ep.Kind == timing.EndFFData && ep.Setup != nil {
					lut := timing.ConstraintTable(ep.Setup.Arc, tr)
					_, _, dRdSlew := lut.EvalGrad(t.clockSlew, t.Slew[ti])
					t.gSlew[ti] -= dRdSlew * dfds
				}
			}
		}
	}
	return f, true
}

// requiredAt returns the (differentiable) required arrival time of an
// endpoint transition. For register endpoints the setup requirement depends
// on the data slew through the constraint LUT, so the returned value is a
// function of placement and the backward pass must chain through it.
//
//dtgp:hotpath
//dtgp:index ti=tnode
func (t *Timer) requiredAt(ep *timing.Endpoint, tr timing.Transition, ti int32) (float64, bool) {
	switch ep.Kind {
	case timing.EndFFData:
		if ep.Setup == nil {
			return 0, false
		}
		lut := timing.ConstraintTable(ep.Setup.Arc, tr)
		return t.period - lut.Eval(t.clockSlew, t.Slew[ti]), true
	default:
		od := 0.0
		if t.G.Con != nil {
			od = t.G.Con.OutputDelayOf(ep.PortName)
		}
		return t.period - od, true
	}
}

// backward seeds endpoint gradients and sweeps the levels in reverse,
// applying Eq. 12 (cell arcs), Eq. 10 (net arcs) and Eq. 8 (Elmore), then
// maps Steiner-node gradients onto cells via pin attribution (Fig. 4).
// elmoreBackward runs the Elmore backward pass (Eq. 8) for nets [lo, hi)
// into persistent per-net gradient buffers. It is the batch adjoint of
// timing.ForwardAll: nets whose seeded gradients are all zero are skipped,
// matching the sparsity of the reverse level sweep. Bound once as
// t.elmoreFn so the hot loop dispatches without a per-call method value.
//
//dtgp:hotpath
//dtgp:backward(elmore-batch)
func (t *Timer) elmoreBackward(_, lo, hi int) {
	for ni := lo; ni < hi; ni++ {
		ns := &t.Nets[ni]
		if ns.Tree == nil {
			continue
		}
		if t.gLoadRoot[ni] == 0 && allZero(t.gDelayNode[ni]) && allZero(t.gImpSq[ni]) {
			continue
		}
		if t.netGrads[ni] == nil {
			t.netGrads[ni] = &rctree.Grad{}
		}
		ns.RC.BackwardInto(t.netGrads[ni], t.gDelayNode[ni], t.gImpSq[ni], t.gLoadRoot[ni])
		t.netGradUsed[ni] = true
	}
}

// backward runs the full reverse pass, accounting wall-clock time to
// Phase.BackwardNS.
//
//dtgp:hotpath
func (t *Timer) backward(t1, t2 float64) float64 {
	b0 := time.Now()
	f := t.backwardFull(t1, t2)
	t.backwardPasses++
	t.Phase.BackwardNS += time.Since(b0).Nanoseconds()
	return f
}

func (t *Timer) backwardFull(t1, t2 float64) float64 {
	g := t.G
	d := g.D

	// Clear the accumulators; independent regions run as pool tasks.
	parallel.Run(t.resetTasks...)

	f, any := t.objective(t1, t2, true)
	if !any {
		return f
	}

	// Reverse level sweep. Groups keep each fan-in location single-writer:
	// net groups write driver (cell-output) pins and per-net accumulators,
	// cell groups write cell-input pins — disjoint sets, so both kinds run
	// in one parallel phase per level.
	for li := len(g.Levels) - 1; li >= 0; li-- {
		t.curBwd = t.bwdGroups[li]
		parallel.ForCost(len(t.curBwd), parallel.CostHeavy, t.bwdFn)
	}

	// Elmore backward per net (Eq. 8) into persistent per-net buffers;
	// guided chunking balances the power-law net-size distribution.
	parallel.ForGuided(len(t.Nets), 4, parallel.CostHeavy, t.elmoreFn)

	// Fig. 4 redistribution: serial, preserving net-index accumulation
	// order so results are schedule-independent.
	for ni := range t.Nets {
		if !t.netGradUsed[ni] {
			continue
		}
		gr := t.netGrads[ni]
		ns := &t.Nets[ni]
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
func allZero(v []float64) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// backwardNetSink applies Eq. 10 for every sink transition of a pin.
//
//dtgp:hotpath
//dtgp:backward(netprop)
//dtgp:index pid=pin
func (t *Timer) backwardNetSink(pid int32) {
	g := t.G
	ni := g.NetOfSink[pid]
	if ni < 0 || t.Nets[ni].Tree == nil {
		return
	}
	ns := &t.Nets[ni]
	driver := g.D.Nets[ni].Driver
	node := ns.Node[g.PosOfSink[pid]]
	for tr := timing.Rise; tr <= timing.Fall; tr++ {
		u, v := timing.TIdx(driver, tr), timing.TIdx(pid, tr)
		if !t.Valid[v] || !t.Valid[u] {
			continue
		}
		gat, gsl := t.gAT[v], t.gSlew[v]
		if gat == 0 && gsl == 0 {
			continue
		}
		// Eq. 10a/10b, chained through the derate on the delay.
		t.gAT[u] += gat
		t.gDelayNode[ni][node] += gat * t.derateLate
		// Eq. 10c/10d; Slew(v) ≥ Slew(u) > 0 for valid pins, but guard
		// against a degenerate zero slew anyway.
		if sv := t.Slew[v]; sv > 1e-9 {
			t.gSlew[u] += t.Slew[u] / sv * gsl
			t.gImpSq[ni][node] += gsl / (2 * sv)
		}
	}
}

// backwardCellOut applies Eq. 12 for every output transition of a pin by
// replaying the live slots of the candidate tape the forward wrote: the
// LSE weights are the taped numerators over the stored partition sums, and
// the LUT partials are taped too.
//
//dtgp:hotpath
//dtgp:backward(cellarc)
//dtgp:index pid=pin
func (t *Timer) backwardCellOut(pid int32) {
	netID := t.G.D.Pins[pid].Net
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
		for k := t.candOff[v]; k < t.candOff[v+1]; k++ {
			u := t.candU[k]
			if !t.Valid[u] {
				continue
			}
			wAT := t.candEAT[k] / atZ
			wSL := t.candESL[k] / slZ
			// Eq. 12a/12b: arrival candidates.
			gA := wAT * gat
			t.gAT[u] += gA
			// Eq. 12c: slew candidates.
			gS := wSL * gsl
			// Eq. 12d: input slew via both LUTs.
			t.gSlew[u] += t.candDDs[k]*gA + t.candDSs[k]*gS
			// Eq. 12e: output load via both LUTs.
			if netID >= 0 {
				t.gLoadRoot[netID] += t.candDDl[k]*gA + t.candDSl[k]*gS
			}
		}
	}
}

// badFloat reports NaN or ±Inf.
//
//dtgp:hotpath
func badFloat(x float64) bool {
	return math.IsNaN(x) || math.IsInf(x, 0)
}

// HealthScan counts non-finite values in the timer's forward state (AT and
// slew of valid pins — invalid pins hold −Inf sentinels by design), the
// per-cell location gradients, and the smoothed objective values. The run
// supervisor calls it once per iteration while the timing objective is
// active: a non-zero count means a LUT extrapolation or Elmore blow-up
// poisoned the pass and the iterate must not be trusted. Read-only and
// allocation-free.
//
//dtgp:hotpath
func (t *Timer) HealthScan() int {
	bad := 0
	for i, ok := range t.Valid {
		if !ok {
			continue
		}
		if badFloat(t.AT[i]) || badFloat(t.Slew[i]) {
			bad++
		}
	}
	for i := range t.CellGradX {
		if badFloat(t.CellGradX[i]) || badFloat(t.CellGradY[i]) {
			bad++
		}
	}
	if badFloat(t.SmTNS) || badFloat(t.SmWNS) {
		bad++
	}
	return bad
}

// String summarises the timer state for logs.
func (t *Timer) String() string {
	return fmt.Sprintf("difftimer{γ=%g steiner=%d evals=%d smWNS=%.1f smTNS=%.1f}",
		t.Opts.Gamma, t.Opts.SteinerPeriod, t.evalCount, t.SmWNS, t.SmTNS)
}
