package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"dtgp/internal/arena"
	"dtgp/internal/bookshelf"
	"dtgp/internal/core"
	"dtgp/internal/density"
	"dtgp/internal/detailed"
	"dtgp/internal/guard"
	"dtgp/internal/legalize"
	"dtgp/internal/netlist"
	"dtgp/internal/netweight"
	"dtgp/internal/parallel"
	"dtgp/internal/place"
	"dtgp/internal/rss"
	"dtgp/internal/sdc"
	"dtgp/internal/timing"
	"dtgp/internal/wirelength"
)

// span is one timed call into a layer, recorded around the call from this
// package (the program itself carries no tracing).
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the trace began
	End    float64 `json:"end_s"`
	Parent int     `json:"parent"` // index of the enclosing span, -1 at the root
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) at(tm time.Time) float64 { return tm.Sub(t.t0).Seconds() }

func (t *tracer) parent() int {
	if len(t.stack) == 0 {
		return -1
	}
	return t.stack[len(t.stack)-1]
}

func (t *tracer) begin(name string) int {
	t.spans = append(t.spans, span{Name: name, Start: t.at(time.Now()), Parent: t.parent()})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) float64 {
	t.spans[id].End = t.at(time.Now())
	t.stack = t.stack[:len(t.stack)-1]
	return t.spans[id].End - t.spans[id].Start
}

// add records an already finished span under parent.
func (t *tracer) add(name string, parent int, start, end time.Time) float64 {
	t.spans = append(t.spans, span{Name: name, Start: t.at(start), End: t.at(end), Parent: parent})
	return end.Sub(start).Seconds()
}

// do times fn as a span and returns its duration in seconds.
func (t *tracer) do(name string, fn func() error) (float64, error) {
	id := t.begin(name)
	err := fn()
	return t.end(id), err
}

// selfTimes sums, per span name, the duration and the self time: the
// duration minus what its child spans cover.
func (t *tracer) selfTimes() (total, self map[string]float64) {
	total, self = map[string]float64{}, map[string]float64{}
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		total[s.Name] += s.End - s.Start
		self[s.Name] += s.End - s.Start - child[i]
	}
	return total, self
}

// ckptFS wraps the real filesystem the durable checkpoint store writes
// through, counting committed checkpoints and bytes and timing the write,
// sync and rename calls.
type ckptFS struct {
	guard.FS
	count       int
	bytes       int64
	write, sync time.Duration
}

type ckptFile struct {
	guard.File
	fs *ckptFS
}

func (c *ckptFS) Create(name string) (guard.File, error) {
	t := time.Now()
	f, err := c.FS.Create(name)
	c.write += time.Since(t)
	if err != nil {
		return nil, err
	}
	return &ckptFile{File: f, fs: c}, nil
}

func (c *ckptFS) Rename(oldname, newname string) error {
	t := time.Now()
	err := c.FS.Rename(oldname, newname)
	c.write += time.Since(t)
	if err == nil {
		c.count++
	}
	return err
}

func (c *ckptFS) SyncDir(dir string) error {
	t := time.Now()
	err := c.FS.SyncDir(dir)
	c.sync += time.Since(t)
	return err
}

func (f *ckptFile) Write(p []byte) (int, error) {
	t := time.Now()
	n, err := f.File.Write(p)
	f.fs.write += time.Since(t)
	f.fs.bytes += int64(n)
	return n, err
}

func (f *ckptFile) Sync() error {
	t := time.Now()
	err := f.File.Sync()
	f.fs.sync += time.Since(t)
	return err
}

func (f *ckptFile) Close() error {
	t := time.Now()
	err := f.File.Close()
	f.fs.write += time.Since(t)
	return err
}

// perLayer accumulates the per-layer metrics over a workload's designs:
// times and counts are summed, ratios are taken over the sums.
type perLayer struct {
	out *output
	// timingIters is the number of timing-driven iterations, for
	// place.timing_iter_ms.
	timingIters int
	// oneLane and allLanes sum each parallel kernel's probe time at one
	// lane and at GOMAXPROCS lanes, for the parallel.speedup_* ratios.
	oneLane, allLanes map[string]float64
}

func (p *perLayer) add(name string, v float64, unit string) {
	m := p.out.metrics[name]
	p.out.metrics[name] = metric{m.Value + v, unit}
}

// tracedDesign is what the traced flow hands to the kernel probe.
type tracedDesign struct {
	d      *netlist.Design
	con    *sdc.Constraints
	gx, gy []float64 // global-placement result
	flow   float64   // traced flow wall time, seconds
	q      quality
}

// runTraced is the traced run. It runs every design's untraced flow first
// (the peak RSS, and the base of the tracing overhead and of the
// bit-identity check), then per design the same flow decomposed into
// public calls with a span around each, a separate Design.Validate, and a
// kernel probe on the global-placement result.
func runTraced(cfg *config, designs []designInput) (*output, error) {
	rec, err := openRecords(cfg)
	if err != nil {
		return nil, err
	}
	opts := flowOptions(cfg.wl, cfg.toy)
	out := newOutput()
	pl := &perLayer{out: out, oneLane: map[string]float64{}, allLanes: map[string]float64{}}
	for _, name := range perLayerNames {
		pl.add(name.name, 0, name.unit)
	}
	tr := newTracer()
	ar := arena.New(1 << 20)
	cfs := &ckptFS{FS: guard.OSFS}
	var untraced, traced float64

	// The untraced flows run first, in a process that has run nothing
	// else, so the high-water mark after them is the flow's peak RSS.
	base := make([]*designRun, len(designs))
	for di, in := range designs {
		fault := ""
		if di == 0 {
			fault = cfg.fault
		}
		out.attempted++
		runtime.GC()
		r, err := runFlow(cfg, in, opts, fault)
		if err == nil {
			err = rec.check(in.name, r.q)
		}
		if err != nil {
			out.fail(in.name, err)
			continue
		}
		base[di] = r
		untraced += r.flow
	}
	pl.add("runtime.peak_rss_mb", float64(rss.PeakBytes())/(1<<20), "MB")

	for di, in := range designs {
		if base[di] == nil {
			continue
		}
		out.attempted++
		runtime.GC()
		dsp := tr.begin("design:" + in.name)
		err = func() error {
			td, err := tracedFlow(cfg, tr, pl, in, opts, ar, cfs)
			if err != nil {
				return err
			}
			if td.q != base[di].q {
				return fmt.Errorf("traced flow differs from the untraced flow: %+v vs %+v", td.q, base[di].q)
			}
			traced += td.flow
			dt, err := tr.do("netlist.validate", td.d.Validate)
			if err != nil {
				return err
			}
			pl.add("netlist.validate_s", dt, "s")
			return probe(cfg, tr, pl, cfs, td)
		}()
		tr.end(dsp)
		if err != nil {
			out.fail(in.name+" (traced)", err)
		}
	}
	if err := rec.save(); err != nil {
		return nil, err
	}
	if pl.timingIters > 0 {
		pl.add("place.timing_iter_ms", 1e3*out.metrics["place.timing_s"].Value/float64(pl.timingIters), "ms")
	}
	for _, k := range []string{"evaluate", "wirelength", "density"} {
		if pl.allLanes[k] > 0 {
			pl.add("parallel.speedup_"+k, pl.oneLane[k]/pl.allLanes[k], "x")
		}
	}
	pl.add("guard.ckpt_count", float64(cfs.count), "count")
	pl.add("guard.ckpt_bytes", float64(cfs.bytes), "bytes")
	pl.add("guard.ckpt_write_s", cfs.write.Seconds(), "s")
	pl.add("guard.ckpt_sync_s", cfs.sync.Seconds(), "s")
	// One traced flow minus one untraced flow per design: a single-pair
	// difference, so wall-time noise between the two flows is in it too and
	// it can come out negative.
	pl.add("trace.overhead_s", traced-untraced, "s")
	fmt.Fprintf(os.Stderr, "traced flow %.3fs, untraced flow %.3fs, tracing overhead %.3fs\n",
		traced, untraced, traced-untraced)
	writeTrace(cfg, tr)
	return out, nil
}

// tracedFlow runs bookshelf.Load, place.Run without legalization
// (progress callbacks split it into build, pre-timing and timing-driven
// stretches), legalize.Legalize, detailed.Refine and a fresh
// timing.NewGraph + timing.Analyze, with a span around each, and checks
// the result like the untraced flow.
func tracedFlow(cfg *config, tr *tracer, pl *perLayer, in designInput, opts place.Options,
	ar *arena.Arena, cfs *ckptFS) (*tracedDesign, error) {
	ckpt, cleanup, err := checkpointDir(cfg)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	gopts := opts
	gopts.SkipLegalize = true
	gopts.DetailedPasses = 0
	gopts.Arena = ar
	gopts.CheckpointDir = ckpt
	gopts.CheckpointFS = cfs
	// A progress callback every iteration timestamps the end of each
	// iteration and the timing activation. It only observes: the trace
	// point writes positions the next gradient overwrites, and the
	// bit-identity check against the untraced flow proves it.
	gopts.TracePeriod = 1
	var first, act, last time.Time
	actIter := 0
	gopts.Logf = func(format string, args ...any) {
		now := time.Now()
		if first.IsZero() {
			first = now
		}
		last = now
		if act.IsZero() && strings.Contains(format, "timing activated") && len(args) > 1 {
			act = now
			actIter, _ = args[1].(int)
		}
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var (
		d   *netlist.Design
		con *sdc.Constraints
		res *place.Result
		gx  []float64
		gy  []float64
		sta *timing.Result
	)
	flowID := tr.begin("flow")
	err = func() error {
		dt, err := tr.do("bookshelf.load", func() (err error) {
			d, con, err = bookshelf.Load(in.dir, in.name)
			return err
		})
		if err != nil {
			return err
		}
		pl.add("bookshelf.load_s", dt, "s")

		placeID := tr.begin("place.run")
		placeStart := time.Now()
		res, err = place.Run(d, con, gopts)
		placeEnd := time.Now()
		tr.end(placeID)
		if err != nil {
			return fmt.Errorf("place.Run: %w", err)
		}
		if first.IsZero() {
			return fmt.Errorf("place.Run made no progress callback")
		}
		// place.build: engine, arena, graph, timer and iteration 0;
		// place.pre_timing and place.timing: the iterations before and
		// after timing activation; place.finish: the run's own final STA
		// (and a checkpoint of the last iteration).
		pl.add("place.build_s", tr.add("place.build", placeID, placeStart, first), "s")
		if act.IsZero() {
			act = last
		} else {
			pl.timingIters += res.Iterations - actIter
		}
		pl.add("place.pre_timing_s", tr.add("place.pre_timing", placeID, first, act), "s")
		pl.add("place.timing_s", tr.add("place.timing", placeID, act, last), "s")
		tr.add("place.finish", placeID, last, placeEnd)
		gx, gy = d.Positions()

		if !opts.SkipLegalize {
			dt, err = tr.do("legalize.legalize", func() error {
				_, err := legalize.Legalize(d)
				return err
			})
			if err != nil {
				return err
			}
			pl.add("legalize.legalize_s", dt, "s")
			do := detailed.DefaultOptions()
			do.Passes = opts.DetailedPasses
			dt, err = tr.do("detailed.refine", func() error {
				_, err := detailed.Refine(d, do)
				return err
			})
			if err != nil {
				return err
			}
			pl.add("detailed.refine_s", dt, "s")
		}
		var g *timing.Graph
		dt, err = tr.do("timing.graph", func() (err error) {
			g, err = timing.NewGraph(d, con)
			return err
		})
		if err != nil {
			return err
		}
		pl.add("timing.graph_s", dt, "s")
		dt, _ = tr.do("timing.final_sta", func() error {
			sta = timing.Analyze(g)
			return nil
		})
		pl.add("timing.final_sta_s", dt, "s")
		return nil
	}()
	flow := tr.end(flowID)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return nil, err
	}
	pl.add("runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC), "count")
	pl.add("runtime.alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20), "MB")
	pl.add("place.iters", float64(res.Iterations), "count")
	pl.add("core.sparse_passes", float64(res.Cone.SparsePasses), "count")
	pl.add("core.full_passes", float64(res.Cone.FullPasses), "count")
	pl.add("arena.used_mb", float64(ar.Stats().UsedBytes)/(1<<20), "MB")
	fmt.Fprintf(os.Stderr, "design %s: place.iters %d timing from iter %d core.sparse_passes %d core.full_passes %d\n",
		in.name, res.Iterations, actIter, res.Cone.SparsePasses, res.Cone.FullPasses)

	// res.WNS/TNS are the STA of the unlegalized placement here, so only
	// the placement checks apply; the bit-identity check against the
	// untraced flow covers the final quality.
	if err := checkPlacement(cfg.wl, d, res, sta); err != nil {
		return nil, err
	}
	return &tracedDesign{d: d, con: con, gx: gx, gy: gy, flow: flow,
		q: qualityOf(sta.WNS, sta.TNS, d.HPWL())}, nil
}

// A probe repeats its call at least probeMin times, then until
// probeBudget has passed, at most probeMax times.
const (
	probeMin    = 1
	probeMax    = 20
	probeBudget = 500 * time.Millisecond
)

// prober runs the kernel probes on one global-placement result. Before
// every timed call it jitters every movable cell around its placed
// position, so each call sees all nets moved: the timer takes the full
// forward/backward path of the converged flow rather than a
// small-displacement fast path.
type prober struct {
	d       *netlist.Design
	gx, gy  []float64
	movable []int32
	amp     float64
	seed    int64
	rng     *rand.Rand
	calls   map[string]int // repetitions chosen per probe
}

func (p *prober) jitter() {
	die := p.d.Die
	for _, ci := range p.movable {
		c := &p.d.Cells[ci]
		c.Pos.X = clamp(p.gx[ci]+(2*p.rng.Float64()-1)*p.amp, die.Lo.X, die.Hi.X-c.W)
		c.Pos.Y = clamp(p.gy[ci]+(2*p.rng.Float64()-1)*p.amp, die.Lo.Y, die.Hi.Y-c.H)
	}
}

func clamp(v, lo, hi float64) float64 { return math.Max(lo, math.Min(v, hi)) }

// repeat times fn after a jitter each call and returns the mean
// milliseconds per call. The repetition count is chosen by budget on the
// first use of a name and reused afterwards, so the two runs of a
// speed-up pair do the same work on the same jitter sequence.
func (p *prober) repeat(name string, fn func()) float64 {
	p.rng = rand.New(rand.NewSource(p.seed))
	n, fixed := p.calls[name]
	var busy time.Duration
	more := func(k int) bool {
		if fixed {
			return k < n
		}
		return k < probeMax && (k < probeMin || busy < probeBudget)
	}
	k := 0
	for ; more(k); k++ {
		p.jitter()
		t := time.Now()
		fn()
		busy += time.Since(t)
	}
	p.calls[name] = k
	return 1e3 * busy.Seconds() / float64(k)
}

// probe times single layers on the global-placement result of td: timer
// construction and evaluation (with the forward/backward split from
// Timer.Phase), net-state rebuild, exact and incremental STA, net
// weighting, wirelength and density, the three parallel kernels at one
// lane and at GOMAXPROCS lanes, and, for the suites, checkpoint writes.
func probe(cfg *config, tr *tracer, pl *perLayer, cfs *ckptFS, td *tracedDesign) error {
	id := tr.begin("probe")
	defer tr.end(id)
	d := td.d.Clone()
	d.SetPositions(td.gx, td.gy)
	p := &prober{d: d, gx: td.gx, gy: td.gy, seed: cfg.seed, calls: map[string]int{}}
	avgW := 0.0
	for ci := range d.Cells {
		c := &d.Cells[ci]
		if c.Movable() && c.Class != netlist.ClassFiller {
			p.movable = append(p.movable, int32(ci))
			avgW += c.W
		}
	}
	if len(p.movable) == 0 {
		return fmt.Errorf("probe: no movable cells")
	}
	p.amp = 2 * avgW / float64(len(p.movable))
	popts := place.DefaultOptions(place.ModeDiffTiming)
	g, err := timing.NewGraph(d, td.con)
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	grid, err := density.NewGrid(d.Die, binsFor(len(p.movable)), binsFor(len(p.movable)), popts.TargetDensity)
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	n := len(p.movable)
	x, y, w, h := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	dgx, dgy := make([]float64, n), make([]float64, n)
	wgx, wgy := make([]float64, len(d.Cells)), make([]float64, len(d.Cells))
	loadCells := func() {
		for k, ci := range p.movable {
			c := &d.Cells[ci]
			x[k], y[k], w[k], h[k] = c.Pos.X, c.Pos.Y, c.W, c.H
		}
	}

	// kernels times the three parallel kernels on a pool of the given
	// width; each gets one untimed warm-up call first. The widest run
	// comes first and fixes the repetition counts; its times are the
	// per-layer metrics.
	lanes := runtime.GOMAXPROCS(0)
	kernels := func(width int) {
		parallel.SetWorkers(width)
		report := width == lanes
		topts := core.DefaultOptions()
		topts.Gamma = popts.TimingGamma
		topts.Arena = arena.New(1 << 20)
		t := time.Now()
		tm := core.NewTimer(g, topts)
		if report {
			pl.add("core.newtimer_s", secondsSince(t), "s")
		}
		tm.Evaluate(popts.T1, popts.T2)
		ph0 := tm.Phase
		eval := p.repeat("core.evaluate", func() { tm.Evaluate(popts.T1, popts.T2) })

		model := wirelength.NewModel(d, math.Max(popts.WLGammaFactor*grid.BinW, 1e-6))
		model.Evaluate(wgx, wgy)
		wl := p.repeat("wirelength.evaluate", func() { model.Evaluate(wgx, wgy) })

		loadCells()
		grid.BuildDensity(x, y, w, h)
		grid.Solve()
		grid.Gradient(x, y, w, h, dgx, dgy)
		build := p.repeat("density.build", func() { loadCells(); grid.BuildDensity(x, y, w, h) })
		solve := p.repeat("density.solve", func() { grid.Solve() })
		grad := p.repeat("density.gradient", func() { grid.Gradient(x, y, w, h, dgx, dgy) })

		sums := pl.oneLane
		if report {
			sums = pl.allLanes
			k := float64(p.calls["core.evaluate"])
			pl.add("core.evaluate_ms", eval, "ms")
			pl.add("core.forward_ms", float64(tm.Phase.ForwardNS-ph0.ForwardNS)/1e6/k, "ms")
			pl.add("core.backward_ms",
				float64(tm.Phase.BackwardNS+tm.Phase.ConeBuildNS-ph0.BackwardNS-ph0.ConeBuildNS)/1e6/k, "ms")
			pl.add("wirelength.evaluate_ms", wl, "ms")
			pl.add("density.build_ms", build, "ms")
			pl.add("density.solve_ms", solve, "ms")
			pl.add("density.gradient_ms", grad, "ms")
		}
		sums["evaluate"] += eval
		sums["wirelength"] += wl
		sums["density"] += build + solve + grad
	}
	kernels(lanes)
	if lanes > 1 {
		kernels(1)
	}
	parallel.SetWorkers(lanes)

	states := timing.BuildNetStates(g)
	pl.add("timing.netstate_ms", p.repeat("timing.netstate", func() { timing.RebuildNetStates(g, states) }), "ms")
	pl.add("timing.analyze_ms", p.repeat("timing.analyze", func() { timing.Analyze(g) }), "ms")
	inc := timing.NewIncremental(g)
	pl.add("timing.incremental_ms", p.repeat("timing.incremental", func() { inc.MoveCells(p.movable) }), "ms")
	d.SetPositions(td.gx, td.gy)
	sta := timing.Analyze(g)
	up := netweight.NewUpdater(d, netweight.DefaultOptions())
	pl.add("netweight.update_ms", p.repeat("netweight.update", func() { up.Update(d, sta) }), "ms")

	// The suites' flows write no checkpoints; time the durable store on
	// them here, so the guard layer is measured on every workload.
	if cfg.wl.suite {
		return probeCheckpoints(cfg, cfs, len(d.Cells), len(d.Nets))
	}
	return nil
}

// probeCheckpoints durably saves three checkpoints sized for a design of
// the given cells and nets through the timed filesystem, for workloads
// whose flow writes none.
func probeCheckpoints(cfg *config, cfs *ckptFS, cells, nets int) error {
	dir, cleanup, err := tempDir(cfg, "ckpt-")
	if err != nil {
		return err
	}
	defer cleanup()
	store, err := guard.NewStore(cfs, dir, 2)
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	cp := guard.NewRing(1, 2*cells, nets).Next()
	for k := 0; k < 3; k++ {
		cp.Iter = 10 * k
		if err := store.Save(cp); err != nil {
			return fmt.Errorf("probe: %w", err)
		}
	}
	return nil
}

// binsFor mirrors the engine's automatic density grid size.
func binsFor(nMov int) int {
	bins := 1
	for bins*bins < nMov && bins < 512 {
		bins *= 2
	}
	return max(bins, 16)
}

// writeTrace keeps the spans and their self times: the span list goes to
// a JSON file in the build directory, the per-name totals to stderr.
func writeTrace(cfg *config, tr *tracer) {
	total, self := tr.selfTimes()
	names := make([]string, 0, len(total))
	for n := range total {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%-28s %12s %12s\n", "span", "total_s", "self_s")
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "%-28s %12.4f %12.4f\n", n, total[n], self[n])
	}
	path := cfg.workDir("trace", fmt.Sprintf("%s-%d-toy%v.json", cfg.wl.name, cfg.seed, cfg.toy))
	mkdirAll(cfg.workDir("trace"))
	body := mustJSON(map[string]any{"env": runEnv(cfg), "spans": tr.spans, "self_s": self})
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench: writing trace:", err)
	}
}

// perLayerNames lists every per-layer metric a traced run reports, with
// its unit; layers a workload does not use report 0.
var perLayerNames = []struct{ name, unit string }{
	{"bookshelf.load_s", "s"},
	{"netlist.validate_s", "s"},
	{"timing.graph_s", "s"},
	{"core.newtimer_s", "s"},
	{"place.build_s", "s"},
	{"place.iters", "count"},
	{"place.pre_timing_s", "s"},
	{"place.timing_s", "s"},
	{"place.timing_iter_ms", "ms"},
	{"core.evaluate_ms", "ms"},
	{"core.forward_ms", "ms"},
	{"core.backward_ms", "ms"},
	{"core.sparse_passes", "count"},
	{"core.full_passes", "count"},
	{"timing.netstate_ms", "ms"},
	{"timing.analyze_ms", "ms"},
	{"timing.final_sta_s", "s"},
	{"timing.incremental_ms", "ms"},
	{"netweight.update_ms", "ms"},
	{"wirelength.evaluate_ms", "ms"},
	{"density.build_ms", "ms"},
	{"density.solve_ms", "ms"},
	{"density.gradient_ms", "ms"},
	{"parallel.speedup_evaluate", "x"},
	{"parallel.speedup_wirelength", "x"},
	{"parallel.speedup_density", "x"},
	{"legalize.legalize_s", "s"},
	{"detailed.refine_s", "s"},
	{"guard.ckpt_count", "count"},
	{"guard.ckpt_bytes", "bytes"},
	{"guard.ckpt_write_s", "s"},
	{"guard.ckpt_sync_s", "s"},
	{"arena.used_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.peak_rss_mb", "MB"},
	{"trace.overhead_s", "s"},
}
