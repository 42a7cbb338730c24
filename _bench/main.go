// Command bench is the end-to-end placement benchmark of this repository.
//
// Each workload runs the public flow on generated inputs: bookshelf.Load,
// then place.Run (global placement, legalization, detailed placement),
// then a fresh timing.NewGraph + timing.Analyze as the final exact STA.
// The program under test only ever receives bookshelf files: on the first
// run of a set, a child process of this command generates them
// (gen.Generate + bookshelf.Save) into .bench_build/inputs/, before
// anything is timed.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	python3 _bench/run.py --workload dt-suite --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object with the
// end-to-end metrics; with --trace 1 it carries the per-layer split of a
// separate traced run, timed from this package around calls into each
// layer's public functions. Human-readable detail goes to standard error.
//
// The inputs are fixed designs recorded in inputs.json and do not depend on
// --seed, so every run of a set must reproduce the same final WNS/TNS/HPWL
// bit for bit; the seed drives the traced run's probe jitter.
//
// Subcommands (first argument): run (default), gen (internal: write one
// workload's inputs), calibrate (derive the designs' fingerprints and clock
// periods, printed as inputs.json).
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"dtgp/internal/place"
)

// workload is one named input set and flow configuration.
type workload struct {
	name string
	mode place.Mode
	// suite workloads: preset designs with recorded clock periods.
	suite bool
	// scale workload: one generated design of scaleCells cells, run for a
	// bounded number of global-placement iterations.
	scaleCells int
	scaleIters int
}

// workloads; BENCHMARK.json gives the reason for each.
//   - dt-suite: the paper's flow to convergence, where core and
//     rsmt/rctree carry most of the time.
//   - nw-suite: the same designs and periods without the differentiable
//     timer; timing.Incremental and netweight run every iteration.
//   - scale-200k: set-up, checkpoint I/O and per-iteration cost at 200k
//     cells, far beyond the last-level cache; timing turns on for the later
//     half of the iterations.
var workloads = []workload{
	{name: "dt-suite", mode: place.ModeDiffTiming, suite: true},
	{name: "nw-suite", mode: place.ModeNetWeight, suite: true},
	{name: "scale-200k", mode: place.ModeDiffTiming, scaleCells: 200000, scaleIters: 6},
}

// toyScaleCells/toyScaleIters and toySuiteScale shrink every workload for
// the self-test (-toy).
const (
	toyScaleCells = 3000
	toyScaleIters = 4
	toySuiteScale = 4096
)

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config is the parsed command line of a run.
type config struct {
	wl      workload
	seed    int64
	seconds float64
	trace   bool
	toy     bool
	fault   string
	root    string
	// build identifies the benchmark binary, and with it the program
	// source it was built from (a digest of the executable).
	build string
}

// setKey names a set of runs: the same build, workload and size. Runs of a
// set share generated inputs and must agree on every design's quality.
func (c *config) setKey() string {
	return fmt.Sprintf("%s-%s-toy%v", c.build, c.wl.name, c.toy)
}

func main() {
	args := os.Args[1:]
	sub := "run"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		sub, args = args[0], args[1:]
	}
	var err error
	switch sub {
	case "run":
		err = cmdRun(args)
	case "gen":
		err = cmdGen(args)
	case "calibrate":
		err = cmdCalibrate(args)
	default:
		err = fmt.Errorf("unknown subcommand %q (run, gen, calibrate)", sub)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func parseRun(args []string) (*config, error) {
	flags := flag.NewFlagSet("run", flag.ContinueOnError)
	name := flags.String("workload", "", "workload name")
	seed := flags.Int64("seed", 1, "input seed")
	seconds := flags.Float64("seconds", 30, "measured seconds per run")
	trace := flags.Int("trace", 0, "1 = traced run reporting the per-layer split")
	toy := flags.Bool("toy", false, "shrink every workload to toy size (self-test)")
	fault := flags.String("fault", "", "seed a fault the checks must count: overlap | wns")
	if err := flags.Parse(args); err != nil {
		return nil, err
	}
	wl, ok := findWorkload(*name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", *name)
	}
	if *trace != 0 && *trace != 1 {
		return nil, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	switch *fault {
	case "", "overlap", "wns":
	default:
		return nil, fmt.Errorf("unknown fault %q", *fault)
	}
	if *fault == "overlap" && !wl.suite {
		return nil, errors.New("the overlap fault needs a legalized (suite) workload")
	}
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	build, err := executableDigest()
	if err != nil {
		return nil, err
	}
	return &config{wl: wl, seed: *seed, seconds: *seconds, trace: *trace == 1,
		toy: *toy, fault: *fault, root: root, build: build}, nil
}

func executableDigest() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// workDir is where a run keeps generated inputs, checkpoints, determinism
// records and trace files: inside the checkout, in the ignored build dir.
func (c *config) workDir(parts ...string) string {
	return filepath.Join(append([]string{c.root, ".bench_build"}, parts...)...)
}

func cmdRun(args []string) error {
	cfg, err := parseRun(args)
	if err != nil {
		return err
	}
	designs, err := generateInputs(cfg)
	if err != nil {
		return err
	}
	env := runEnv(cfg)
	fmt.Printf("env %s\n", mustJSON(env))

	var out *output
	if cfg.trace {
		out, err = runTraced(cfg, designs)
	} else {
		out, err = runTimed(cfg, designs)
	}
	if err != nil {
		return err
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		fmt.Fprintf(os.Stderr, "rusage user %.2fs sys %.2fs minflt %d majflt %d\n",
			time.Duration(ru.Utime.Nano()).Seconds(), time.Duration(ru.Stime.Nano()).Seconds(), ru.Minflt, ru.Majflt)
	}
	out.print()
	return nil
}

// mkdirAll creates dir and returns it. A failure is left to the first
// file created in dir, which reports it with the path.
func mkdirAll(dir string) string {
	_ = os.MkdirAll(dir, 0o755)
	return dir
}

// runEnv is recorded with every result.
func runEnv(cfg *config) map[string]any {
	commit := os.Getenv("BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"workload":   cfg.wl.name,
		"seed":       cfg.seed,
		"trace":      cfg.trace,
		"toy":        cfg.toy,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"commit":     commit,
		"source":     os.Getenv("BENCH_SOURCE"),
		"build":      cfg.build,
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line of a run.
type output struct {
	attempted, failed int
	metrics           map[string]metric
}

func newOutput() *output { return &output{metrics: map[string]metric{}} }

func (o *output) set(name string, v float64, unit string) { o.metrics[name] = metric{v, unit} }

// fail records a failed design run with its reason on standard error.
func (o *output) fail(design string, err error) {
	o.failed++
	fmt.Fprintf(os.Stderr, "FAILED %s: %v\n", design, err)
}

func (o *output) print() {
	names := make([]string, 0, len(o.metrics))
	for n := range o.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := o.metrics[n]
		fmt.Fprintf(os.Stderr, "%-28s %16.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(os.Stderr, "attempted %d failed %d\n", o.attempted, o.failed)
	fmt.Println(mustJSON(map[string]any{
		"correct":   o.failed == 0,
		"attempted": o.attempted,
		"failed":    o.failed,
		"metrics":   o.metrics,
	}))
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

func secondsSince(t time.Time) float64 { return time.Since(t).Seconds() }
