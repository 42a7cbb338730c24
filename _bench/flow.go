package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"dtgp/internal/bookshelf"
	"dtgp/internal/legalize"
	"dtgp/internal/netlist"
	"dtgp/internal/place"
	"dtgp/internal/rss"
	"dtgp/internal/sdc"
	"dtgp/internal/timing"
)

// flowOptions is the place.Run configuration of a workload.
func flowOptions(wl workload, toy bool) place.Options {
	opts := place.DefaultOptions(wl.mode)
	if wl.suite {
		opts.DetailedPasses = 3
		return opts
	}
	iters := wl.scaleIters
	if toy {
		iters = toyScaleIters
	}
	opts.MaxIters = iters
	opts.TimingStartIter = iters / 2
	opts.SkipLegalize = true
	// Two durable checkpoints: iteration 0 and the iteration timing starts.
	opts.Guard.CheckpointPeriod = iters / 2
	opts.CheckpointKeep = 2
	return opts
}

// quality is the bit pattern of a design run's final WNS/TNS/HPWL.
type quality struct {
	WNS  uint64 `json:"wns"`
	TNS  uint64 `json:"tns"`
	HPWL uint64 `json:"hpwl"`
}

func qualityOf(wns, tns, hpwl float64) quality {
	return quality{math.Float64bits(wns), math.Float64bits(tns), math.Float64bits(hpwl)}
}

func (q quality) values() (wns, tns, hpwl float64) {
	return math.Float64frombits(q.WNS), math.Float64frombits(q.TNS), math.Float64frombits(q.HPWL)
}

// designRun is one timed Load → place.Run → final STA of one design.
type designRun struct {
	setup, flow float64 // seconds
	q           quality
	res         *place.Result
}

// placed is a design after bookshelf.Load and place.Run.
type placed struct {
	d     *netlist.Design
	con   *sdc.Constraints
	res   *place.Result
	start time.Time // when Load was called
	// setup is the time from the Load call to place.Run's first progress
	// callback (engine, arena, timing graph, timer, iteration 0).
	setup float64
}

// loadAndPlace runs bookshelf.Load then place.Run, timestamping the first
// progress callback.
func loadAndPlace(in designInput, opts place.Options) (*placed, error) {
	var first time.Time
	opts.Logf = func(string, ...any) {
		if first.IsZero() {
			first = time.Now()
		}
	}
	t0 := time.Now()
	d, con, err := bookshelf.Load(in.dir, in.name)
	if err != nil {
		return nil, err
	}
	res, err := place.Run(d, con, opts)
	if err != nil {
		return nil, fmt.Errorf("place.Run: %w", err)
	}
	if first.IsZero() {
		return nil, errors.New("place.Run made no progress callback")
	}
	return &placed{d: d, con: con, res: res, start: t0, setup: first.Sub(t0).Seconds()}, nil
}

// runFlow times the public flow on one design and checks its outputs. A
// non-empty fault seeds the named defect after place.Run, which the checks
// must catch.
func runFlow(cfg *config, in designInput, opts place.Options, fault string) (*designRun, error) {
	ckpt, cleanup, err := checkpointDir(cfg)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	opts.CheckpointDir = ckpt
	p, err := loadAndPlace(in, opts)
	if err != nil {
		return nil, err
	}
	injectFault(fault, p.d, p.res)
	g, err := timing.NewGraph(p.d, p.con)
	if err != nil {
		return nil, fmt.Errorf("final STA: %w", err)
	}
	sta := timing.Analyze(g)
	end := time.Now()
	if err := checkDesign(cfg.wl, p.d, p.res, sta); err != nil {
		return nil, err
	}
	return &designRun{
		setup: p.setup,
		flow:  end.Sub(p.start).Seconds(),
		q:     qualityOf(sta.WNS, sta.TNS, p.res.HPWL),
		res:   p.res,
	}, nil
}

// setupOnly times one set-up; the run stops after iteration 0.
func setupOnly(in designInput, opts place.Options) (float64, error) {
	opts.MaxIters = 1
	opts.SkipLegalize = true
	opts.DetailedPasses = 0
	opts.CheckpointDir = ""
	p, err := loadAndPlace(in, opts)
	if err != nil {
		return 0, err
	}
	return p.setup, nil
}

// checkpointDir makes a fresh durable-checkpoint directory when the
// workload checkpoints (scale), and a cleanup that removes it.
func checkpointDir(cfg *config) (string, func(), error) {
	if cfg.wl.suite {
		return "", func() {}, nil
	}
	return tempDir(cfg, "ckpt-")
}

// tempDir makes a fresh directory under the build dir and a cleanup that
// removes it.
func tempDir(cfg *config, pattern string) (string, func(), error) {
	dir, err := os.MkdirTemp(mkdirAll(cfg.workDir("tmp")), pattern)
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

// checkPlacement applies the checks on the final placement and its STA: a
// healthy supervisor record, a legal placement (legalized workloads) and a
// finite STA.
func checkPlacement(wl workload, d *netlist.Design, res *place.Result, sta *timing.Result) error {
	if !res.Recovery.Healthy() {
		return fmt.Errorf("supervisor recorded incidents: %s", res.Recovery)
	}
	if wl.suite {
		if err := legalize.Check(d); err != nil {
			return fmt.Errorf("illegal placement: %w", err)
		}
	}
	if !sta.Finite() {
		return fmt.Errorf("non-finite STA: WNS %v TNS %v", sta.WNS, sta.TNS)
	}
	return nil
}

// checkDesign applies checkPlacement, then requires the fresh STA to
// reproduce the WNS/TNS place.Run reported exactly.
func checkDesign(wl workload, d *netlist.Design, res *place.Result, sta *timing.Result) error {
	if err := checkPlacement(wl, d, res, sta); err != nil {
		return err
	}
	if math.Float64bits(sta.WNS) != math.Float64bits(res.WNS) ||
		math.Float64bits(sta.TNS) != math.Float64bits(res.TNS) {
		return fmt.Errorf("fresh STA gives WNS %v TNS %v, place.Run reported WNS %v TNS %v",
			sta.WNS, sta.TNS, res.WNS, res.TNS)
	}
	return nil
}

// injectFault seeds a defect the checks must count: "overlap" moves one
// movable cell onto another after legalization, "wns" perturbs the
// reported WNS by one ulp.
func injectFault(fault string, d *netlist.Design, res *place.Result) {
	switch fault {
	case "overlap":
		var mov []int
		for ci := range d.Cells {
			if d.Cells[ci].Movable() && d.Cells[ci].Class != netlist.ClassFiller {
				mov = append(mov, ci)
				if len(mov) == 2 {
					break
				}
			}
		}
		if len(mov) == 2 {
			d.Cells[mov[0]].Pos = d.Cells[mov[1]].Pos
		}
	case "wns":
		res.WNS = math.Nextafter(res.WNS, math.Inf(1))
	}
}

// records keeps each design's final quality across the runs of one set:
// every run of the same program build on the same workload and size (the
// inputs do not depend on --seed). The repo claims determinism, so any
// difference is a failure.
type records struct {
	path string
	seen map[string]quality
	// dirty marks qualities first seen by this run, to be persisted.
	dirty bool
}

func openRecords(cfg *config) (*records, error) {
	r := &records{path: filepath.Join(mkdirAll(cfg.workDir("records")), cfg.setKey()+".json"), seen: map[string]quality{}}
	if b, err := os.ReadFile(r.path); err == nil {
		if err := json.Unmarshal(b, &r.seen); err != nil {
			return nil, fmt.Errorf("determinism record %s: %w", r.path, err)
		}
	}
	return r, nil
}

// check compares a design's quality with every earlier run of the set.
func (r *records) check(design string, q quality) error {
	prev, ok := r.seen[design]
	if !ok {
		r.seen[design] = q
		r.dirty = true
		return nil
	}
	if prev != q {
		pw, pt, ph := prev.values()
		w, t, h := q.values()
		return fmt.Errorf("not deterministic: WNS/TNS/HPWL %v/%v/%v, an earlier run of the set gave %v/%v/%v",
			w, t, h, pw, pt, ph)
	}
	return nil
}

// save persists newly seen qualities (write to a temp file, then rename).
func (r *records) save() error {
	if !r.dirty {
		return nil
	}
	tmp := r.path + ".tmp"
	if err := os.WriteFile(tmp, []byte(mustJSON(r.seen)), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, r.path)
}

// setupSampleCount is how many set-ups a timed run measures beyond the one
// inside each flow repetition.
func setupSampleCount(wl workload) int {
	if wl.suite {
		return 12
	}
	return 3
}

// runTimed is the untraced run: the extra set-up samples, then flow
// repetitions while the next one still fits in cfg.seconds, counted from
// the start of the set-up samples (at least one repetition). Every design
// run is checked. Each flow and set-up starts from a collected heap, as it
// would in a fresh process, so one design's garbage does not land in the
// next one's time.
func runTimed(cfg *config, designs []designInput) (*output, error) {
	rec, err := openRecords(cfg)
	if err != nil {
		return nil, err
	}
	opts := flowOptions(cfg.wl, cfg.toy)
	out := newOutput()
	var flowSamples, setupSamples []float64
	var sumWNS, sumTNS, sumHPWL float64

	start := time.Now()
	for i := 0; i < setupSampleCount(cfg.wl); i++ {
		total := 0.0
		for _, in := range designs {
			out.attempted++
			runtime.GC()
			s, err := setupOnly(in, opts)
			if err != nil {
				out.fail(in.name+" (set-up)", err)
				continue
			}
			total += s
		}
		setupSamples = append(setupSamples, total)
	}
	for rep := 0; ; rep++ {
		repStart := time.Now()
		var flowTotal, setupTotal float64
		for di, in := range designs {
			fault := ""
			if rep == 0 && di == 0 {
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
			flowTotal += r.flow
			setupTotal += r.setup
			if rep == 0 {
				w, t, h := r.q.values()
				sumWNS += w
				sumTNS += t
				sumHPWL += h
			}
			fmt.Fprintf(os.Stderr, "rep %d %s: flow %.3fs setup %.3fs iters %d WNS %.1f TNS %.1f HPWL %.6g peak %.1fMB\n",
				rep, in.name, r.flow, r.setup, r.res.Iterations, r.res.WNS, r.res.TNS, r.res.HPWL,
				float64(rss.PeakBytes())/(1<<20))
		}
		flowSamples = append(flowSamples, flowTotal)
		setupSamples = append(setupSamples, setupTotal)
		if secondsSince(start)+secondsSince(repStart) > cfg.seconds {
			break
		}
	}
	if err := rec.save(); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "flow samples %v\nsetup samples %v\n", flowSamples, setupSamples)

	out.set("flow_s", median(flowSamples), "s")
	out.set("setup_s", median(setupSamples), "s")
	out.set("wns_ps", sumWNS, "ps")
	out.set("tns_ps", sumTNS, "ps")
	out.set("hpwl", sumHPWL, "DBU")
	return out, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
