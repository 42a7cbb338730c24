// Benchmarks regenerating the paper's evaluation artifacts. One benchmark
// per table/figure (Table 2, Table 3 per design × flow, Figure 8) plus the
// ablations of DESIGN.md and micro-benchmarks of the hot kernels.
//
// The full-fidelity experiment run is `go run ./cmd/dtgp-bench -experiment
// all`; these benchmarks use smaller scales so `go test -bench=.` finishes
// in minutes.
package dtgp

import (
	"fmt"
	"math/rand"
	"testing"

	"dtgp/internal/core"
	"dtgp/internal/gen"
	"dtgp/internal/geom"
	"dtgp/internal/place"
	"dtgp/internal/timing"
)

// benchScale keeps bench designs small (superblue1/2048 ≈ 590 cells).
const benchScale = 2048

func benchDesign(b *testing.B, preset string) (*Design, *Constraints) {
	b.Helper()
	d, con, err := GenerateBenchmark(preset, benchScale)
	if err != nil {
		b.Fatal(err)
	}
	return d, con
}

// BenchmarkTable2Stats regenerates Table 2: benchmark synthesis plus
// statistics for the whole suite.
func BenchmarkTable2Stats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, name := range BenchmarkNames() {
			d, _, err := GenerateBenchmark(name, benchScale)
			if err != nil {
				b.Fatal(err)
			}
			s := d.Stats()
			if s.Cells == 0 || s.Nets == 0 {
				b.Fatal("empty stats")
			}
		}
	}
}

// BenchmarkTable3 regenerates one (design, flow) cell of Table 3 per
// sub-benchmark: full global placement + legalization + final STA.
func BenchmarkTable3(b *testing.B) {
	flows := []struct {
		name string
		mode Flow
	}{
		{"dreamplace16", FlowWirelength},
		{"netweight24", FlowNetWeight},
		{"ours", FlowDiffTiming},
	}
	for _, preset := range []string{"superblue4", "superblue18"} {
		d0, con, err := GenerateBenchmark(preset, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		// Calibrate the clock once per design from a WL run.
		dCal := d0.Clone()
		resCal, err := Place(dCal, con, FlowWirelength, nil)
		if err != nil {
			b.Fatal(err)
		}
		con.Period = 0.7 * resCal.STA.CriticalDelay()
		for _, f := range flows {
			b.Run(fmt.Sprintf("%s/%s", preset, f.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					d := d0.Clone()
					res, err := Place(d, con, f.mode, nil)
					if err != nil {
						b.Fatal(err)
					}
					_ = res.WNS
				}
			})
		}
	}
}

// BenchmarkFigure8Trace regenerates the Figure 8 data: a traced run
// (per-iteration HPWL/overflow, periodic exact WNS/TNS) of the
// differentiable-timing flow.
func BenchmarkFigure8Trace(b *testing.B) {
	d0, con := benchDesign(b, "superblue4")
	if err := CalibratePeriod(d0, con, 0.5); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		d := d0.Clone()
		opts := DefaultPlaceOptions(FlowDiffTiming)
		opts.TraceTiming = true
		opts.TracePeriod = 10
		res, err := Place(d, con, FlowDiffTiming, &opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Trace) == 0 {
			b.Fatal("no trace")
		}
	}
}

// timerBed builds a differentiable timer over a bench design.
func timerBed(b *testing.B, gamma float64, steinerPeriod int) *core.Timer {
	b.Helper()
	d, con := benchDesign(b, "superblue4")
	if err := CalibratePeriod(d, con, 0.7); err != nil {
		b.Fatal(err)
	}
	g, err := timing.NewGraph(d, con)
	if err != nil {
		b.Fatal(err)
	}
	return core.NewTimer(g, core.Options{Gamma: gamma, SteinerPeriod: steinerPeriod})
}

// BenchmarkAblationSteinerPeriod measures the §3.6 design choice: cost of a
// differentiable-timer evaluation as a function of the Steiner rebuild
// period (period 1 = rebuild every evaluation, as [24]-style flows must).
func BenchmarkAblationSteinerPeriod(b *testing.B) {
	for _, period := range []int{1, 5, 10, 20, 1 << 30} {
		name := fmt.Sprintf("period-%d", period)
		if period == 1<<30 {
			name = "period-inf"
		}
		b.Run(name, func(b *testing.B) {
			tm := timerBed(b, 100, period)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tm.Evaluate(0.01, 0.001)
			}
		})
	}
}

// BenchmarkAblationGamma measures evaluation cost and records smoothed-vs-
// hard metric gaps across the §3.2 smoothing strengths.
func BenchmarkAblationGamma(b *testing.B) {
	for _, gamma := range []float64{10, 50, 100, 200, 500} {
		b.Run(fmt.Sprintf("gamma-%g", gamma), func(b *testing.B) {
			tm := timerBed(b, gamma, 10)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tm.Evaluate(0.01, 0.001)
			}
			b.ReportMetric(tm.SmWNS-tm.EstWNS, "wns-smoothing-gap-ps")
		})
	}
}

// BenchmarkAblationObjectiveWeights compares gradient evaluation with the
// Eq. 6 terms toggled.
func BenchmarkAblationObjectiveWeights(b *testing.B) {
	configs := []struct {
		name   string
		t1, t2 float64
	}{
		{"tns+wns", 0.01, 0.001},
		{"tns-only", 0.01, 0},
		{"wns-only", 0, 0.001},
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			tm := timerBed(b, 100, 10)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tm.Evaluate(cfg.t1, cfg.t2)
			}
		})
	}
}

// --- micro-benchmarks of the kernels behind the tables ---

// BenchmarkDiffTimerForwardBackward is one full differentiable STA pass
// (the per-iteration cost added by the paper's method).
func BenchmarkDiffTimerForwardBackward(b *testing.B) {
	tm := timerBed(b, 100, 10)
	tm.Phase = core.PhaseTimes{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Evaluate(0.01, 0.001)
	}
	reportPhases(b, tm)
}

// BenchmarkExactSTA is one full exact STA (the per-update cost of the
// net-weighting baseline).
func BenchmarkExactSTA(b *testing.B) {
	d, con := benchDesign(b, "superblue4")
	if err := CalibratePeriod(d, con, 0.7); err != nil {
		b.Fatal(err)
	}
	g, err := timing.NewGraph(d, con)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := timing.Analyze(g)
		_ = res.WNS
	}
}

// movementBed builds a differentiable timer plus the movable-cell index for
// movement-workload benchmarks. incremental toggles the displacement-driven
// evaluation mode against the legacy full-refresh baseline.
func movementBed(b *testing.B, incremental bool) (*core.Timer, *Design, []int32) {
	b.Helper()
	opts := core.Options{Gamma: 100, SteinerPeriod: 10}
	if incremental {
		opts = core.DefaultOptions()
	}
	d, con := benchDesign(b, "superblue4")
	if err := CalibratePeriod(d, con, 0.7); err != nil {
		b.Fatal(err)
	}
	g, err := timing.NewGraph(d, con)
	if err != nil {
		b.Fatal(err)
	}
	var movable []int32
	for ci := range d.Cells {
		if d.Cells[ci].Movable() {
			movable = append(movable, int32(ci))
		}
	}
	return core.NewTimer(g, opts), d, movable
}

// reportPhases splits the measured Evaluate cost into the timer's cumulative
// per-phase wall clock (zeroed after warm-up by the caller).
func reportPhases(b *testing.B, tm *core.Timer) {
	b.Helper()
	n := float64(b.N)
	b.ReportMetric(float64(tm.Phase.ForwardNS)/n, "forward-ns/op")
	b.ReportMetric(float64(tm.Phase.BackwardNS)/n, "backward-ns/op")
}

// BenchmarkDiffTimerIncremental measures one differentiable-timer evaluation
// under a movement workload: every movable cell drifts by a uniform step
// before each Evaluate. small-step mimics a converging placement (drift well
// under the ε-displacement threshold, so the incremental mode skips most net
// re-extraction; the forward and backward sweeps run in full either way);
// large-step forces every net dirty and bounds the bookkeeping overhead of
// the ε-refresh.
func BenchmarkDiffTimerIncremental(b *testing.B) {
	steps := []struct {
		name  string
		delta float64
	}{{"small-step", 0.1}, {"large-step", 25}}
	modes := []struct {
		name        string
		incremental bool
	}{{"full", false}, {"incremental", true}}
	for _, st := range steps {
		for _, m := range modes {
			b.Run(st.name+"/"+m.name, func(b *testing.B) {
				tm, d, movable := movementBed(b, m.incremental)
				rng := rand.New(rand.NewSource(9))
				tm.Evaluate(0.01, 0.001) // warm caches and scratch
				tm.Phase = core.PhaseTimes{}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, ci := range movable {
						d.Cells[ci].Pos.X += (rng.Float64() - 0.5) * 2 * st.delta
						d.Cells[ci].Pos.Y += (rng.Float64() - 0.5) * 2 * st.delta
					}
					tm.Evaluate(0.01, 0.001)
				}
				reportPhases(b, tm)
			})
		}
	}
}

// BenchmarkExactSTAIncremental measures the periodic exact-STA pass of the
// net-weighting flow: from-scratch Analyze versus the maintained
// timing.Incremental engine fed only the cells that moved. move-2pct is the
// sparse perturbation workload (detailed-placement-style); move-all is the
// worst case where every movable cell changed.
func BenchmarkExactSTAIncremental(b *testing.B) {
	workloads := []struct {
		name string
		frac float64
	}{{"move-2pct", 0.02}, {"move-all", 1}}
	modes := []struct {
		name        string
		incremental bool
	}{{"full", false}, {"incremental", true}}
	for _, wl := range workloads {
		for _, m := range modes {
			b.Run(wl.name+"/"+m.name, func(b *testing.B) {
				d, con := benchDesign(b, "superblue4")
				if err := CalibratePeriod(d, con, 0.7); err != nil {
					b.Fatal(err)
				}
				g, err := timing.NewGraph(d, con)
				if err != nil {
					b.Fatal(err)
				}
				var movable []int32
				for ci := range d.Cells {
					if d.Cells[ci].Movable() {
						movable = append(movable, int32(ci))
					}
				}
				nMove := int(float64(len(movable)) * wl.frac)
				if nMove < 1 {
					nMove = 1
				}
				var inc *timing.Incremental
				if m.incremental {
					inc = timing.NewIncremental(g)
					inc.Epsilon = 0
				}
				rng := rand.New(rand.NewSource(11))
				moved := make([]int32, 0, nMove)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					moved = moved[:0]
					for k := 0; k < nMove; k++ {
						ci := movable[rng.Intn(len(movable))]
						d.Cells[ci].Pos.X += (rng.Float64() - 0.5) * 10
						d.Cells[ci].Pos.Y += (rng.Float64() - 0.5) * 10
						moved = append(moved, ci)
					}
					if m.incremental {
						inc.MoveCells(moved)
					} else {
						res := timing.Analyze(g)
						_ = res.WNS
					}
				}
			})
		}
	}
}

// BenchmarkPlacementIterationTiming runs a short timing-active placement
// segment with the default ε-displacement net refresh versus ExactRefresh,
// the §3.6 fixed-period Steiner policy. The two refresh policies build
// different Steiner trees, so the trajectories differ as well as the work.
func BenchmarkPlacementIterationTiming(b *testing.B) {
	d0, con := benchDesign(b, "superblue4")
	if err := CalibratePeriod(d0, con, 0.5); err != nil {
		b.Fatal(err)
	}
	for _, m := range []struct {
		name  string
		exact bool
	}{{"exact-refresh", true}, {"incremental", false}} {
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d := d0.Clone()
				opts := DefaultPlaceOptions(FlowDiffTiming)
				opts.MaxIters = 60
				opts.TimingStartIter = 5
				opts.SkipLegalize = true
				opts.ExactRefresh = m.exact
				if _, err := Place(d, con, FlowDiffTiming, &opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSteinerBuild is the FLUTE-replacement cost over all nets.
func BenchmarkSteinerBuild(b *testing.B) {
	d, con := benchDesign(b, "superblue4")
	g, err := timing.NewGraph(d, con)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nets := timing.BuildNetStates(g)
		_ = nets
	}
}

// BenchmarkSteinerRebuild is the same stage on the warm path: periodic
// topology re-extraction into pre-existing per-net state (what the timer
// actually pays every SteinerPeriod evaluations).
func BenchmarkSteinerRebuild(b *testing.B) {
	d, con := benchDesign(b, "superblue4")
	g, err := timing.NewGraph(d, con)
	if err != nil {
		b.Fatal(err)
	}
	nets := timing.BuildNetStates(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		timing.RebuildNetStates(g, nets)
	}
}

// BenchmarkDetailedRefine is detailed placement (adjacent and global swap
// passes) on superblue7 at scale 256, the larger dt-suite design. The
// design is legalized once; every iteration refines from the same legal
// placement.
func BenchmarkDetailedRefine(b *testing.B) {
	d, _, err := GenerateBenchmark("superblue7", 256)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := Legalize(d); err != nil {
		b.Fatal(err)
	}
	legal := make([]geom.Point, len(d.Cells))
	for ci := range d.Cells {
		legal[ci] = d.Cells[ci].Pos
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for ci := range d.Cells {
			d.Cells[ci].Pos = legal[ci]
		}
		b.StartTimer()
		if _, err := RefineDetailed(d, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlacementIteration approximates one wirelength+density gradient
// iteration of the substrate placer.
func BenchmarkPlacementIteration(b *testing.B) {
	d, con := benchDesign(b, "superblue4")
	opts := DefaultPlaceOptions(FlowWirelength)
	opts.MaxIters = 1
	opts.SkipLegalize = true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dd := d.Clone()
		if _, err := Place(dd, con, FlowWirelength, &opts); err != nil {
			b.Fatal(err)
		}
	}
}

var _ = gen.Presets // documentation anchor: presets drive every benchmark
var _ = place.ModeWirelength
