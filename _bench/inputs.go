package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"

	"dtgp/internal/bookshelf"
	"dtgp/internal/gen"
	"dtgp/internal/netlist"
	"dtgp/internal/place"
	"dtgp/internal/sdc"
)

// inputs.json records every design the workloads place, with its clock
// period. A suite period is derived once, by `bench calibrate`, as
// periodFactor × the critical delay the wirelength flow reaches on the
// design, and never recomputed by a run: a change to the wirelength flow
// must not silently change the inputs of the dt/nw workloads. The design
// fingerprint (cells, nets, pins) catches a generator change that would
// leave a recorded period pointing at a different circuit.
//
//go:embed inputs.json
var inputsJSON []byte

// suiteDesign is one recorded (design, generator seed) input.
type suiteDesign struct {
	Preset   string  `json:"preset"`
	Scale    int     `json:"scale"`
	GenSeed  int64   `json:"gen_seed"`
	Cells    int     `json:"cells"`
	Nets     int     `json:"nets"`
	Pins     int     `json:"pins"`
	PeriodPS float64 `json:"period_ps"`
}

// scaleDesign is the recorded input of the scale workload: a generated
// design (gen.DefaultParams) with the generator's own clock period,
// rounded to whole ps.
type scaleDesign struct {
	TargetCells int     `json:"target_cells"`
	GenSeed     int64   `json:"gen_seed"`
	Cells       int     `json:"cells"`
	Nets        int     `json:"nets"`
	Pins        int     `json:"pins"`
	PeriodPS    float64 `json:"period_ps"`
}

type inputSpec struct {
	Suite []suiteDesign `json:"suite"`
	Scale []scaleDesign `json:"scale"`
}

// periodFactor sets a suite design's clock period as a fraction of the
// critical delay the wirelength flow reaches on it.
const periodFactor = 0.6

// scaleGenSeed is the generator seed of the scale design. Inputs do not
// depend on the run's --seed: every run of a set places the same designs,
// so final WNS/TNS/HPWL must agree bit for bit and timings compare like
// for like.
const scaleGenSeed = 1

// suitePresets are the designs of both suite workloads.
var suitePresets = []string{"superblue4", "superblue7"}

const suiteScale = 256

func loadSpec() (*inputSpec, error) {
	var s inputSpec
	if err := json.Unmarshal(inputsJSON, &s); err != nil {
		return nil, fmt.Errorf("inputs.json: %w", err)
	}
	return &s, nil
}

// recorded returns the recorded input of preset at scale.
func (s *inputSpec) recorded(preset string, scale int) (suiteDesign, error) {
	for _, d := range s.Suite {
		if d.Preset == preset && d.Scale == scale {
			return d, nil
		}
	}
	return suiteDesign{}, fmt.Errorf("inputs.json has no period for %s at scale %d (run `bench calibrate`)", preset, scale)
}

// recordedScale returns the recorded scale design of the given size.
func (s *inputSpec) recordedScale(cells int) (scaleDesign, error) {
	for _, d := range s.Scale {
		if d.TargetCells == cells {
			return d, nil
		}
	}
	return scaleDesign{}, fmt.Errorf("inputs.json has no scale design of %d cells (run `bench calibrate`)", cells)
}

// checkFingerprint guards a recorded period against a generator change.
func checkFingerprint(name string, d *netlist.Design, cells, nets, pins int) error {
	st := d.Stats()
	if st.Cells != cells || st.Nets != nets || st.Pins != pins {
		return fmt.Errorf("gen: %s is now %d cells/%d nets/%d pins, inputs.json recorded %d/%d/%d; "+
			"the generator changed, so re-run `bench calibrate`", name, st.Cells, st.Nets, st.Pins, cells, nets, pins)
	}
	return nil
}

// designInput names one design's saved bookshelf file set.
type designInput struct {
	name string // base name of the files
	dir  string
}

// generateInputs returns the set's inputs, generating them on the set's
// first run: a child process writes them (neither generation time nor its
// memory lands in this process's measurements) into a temporary directory
// that is then renamed into place, so a killed run leaves no partial set.
func generateInputs(cfg *config) ([]designInput, error) {
	dir := filepath.Join(mkdirAll(cfg.workDir("inputs")), cfg.setKey())
	if _, err := os.Stat(dir); errors.Is(err, fs.ErrNotExist) {
		tmp, cleanup, err := tempDir(cfg, "inputs-")
		if err != nil {
			return nil, err
		}
		defer cleanup()
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		args := []string{"gen", "--workload", cfg.wl.name, "--out", tmp}
		if cfg.toy {
			args = append(args, "--toy")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("generating inputs: %w", err)
		}
		if err := os.Rename(tmp, dir); err != nil {
			return nil, fmt.Errorf("generating inputs: %w", err)
		}
	} else if err != nil {
		return nil, err
	}
	var out []designInput
	for _, name := range designNames(cfg.wl) {
		out = append(out, designInput{name: name, dir: dir})
	}
	return out, nil
}

func designNames(wl workload) []string {
	if wl.suite {
		return suitePresets
	}
	return []string{"scale"}
}

func scaleCellsFor(wl workload, toy bool) int {
	if toy {
		return toyScaleCells
	}
	return wl.scaleCells
}

func suiteScaleFor(toy bool) int {
	if toy {
		return toySuiteScale
	}
	return suiteScale
}

func cmdGen(args []string) error {
	flags := flag.NewFlagSet("gen", flag.ContinueOnError)
	name := flags.String("workload", "", "workload name")
	toy := flags.Bool("toy", false, "toy size")
	out := flags.String("out", "", "output directory")
	if err := flags.Parse(args); err != nil {
		return err
	}
	wl, ok := findWorkload(*name)
	if !ok || *out == "" {
		return fmt.Errorf("gen: need a known --workload and --out")
	}
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	if !wl.suite {
		rec, err := spec.recordedScale(scaleCellsFor(wl, *toy))
		if err != nil {
			return err
		}
		d, con, err := gen.Generate(gen.DefaultParams("scale", rec.TargetCells, rec.GenSeed))
		if err != nil {
			return err
		}
		if err := checkFingerprint("scale", d, rec.Cells, rec.Nets, rec.Pins); err != nil {
			return err
		}
		con.Period = rec.PeriodPS
		return bookshelf.Save(*out, "scale", d, con)
	}
	for _, preset := range suitePresets {
		rec, err := spec.recorded(preset, suiteScaleFor(*toy))
		if err != nil {
			return err
		}
		d, con, err := generatePreset(preset, rec.Scale)
		if err != nil {
			return err
		}
		if err := checkFingerprint(fmt.Sprintf("%s/%d", preset, rec.Scale), d, rec.Cells, rec.Nets, rec.Pins); err != nil {
			return err
		}
		con.Period = rec.PeriodPS
		if err := bookshelf.Save(*out, preset, d, con); err != nil {
			return err
		}
	}
	return nil
}

func generatePreset(preset string, scale int) (*netlist.Design, *sdc.Constraints, error) {
	p, ok := gen.PresetByName(preset)
	if !ok {
		return nil, nil, fmt.Errorf("unknown preset %q", preset)
	}
	return gen.Generate(p.Params(scale))
}

// cmdCalibrate derives the suite periods and prints inputs.json: each
// design runs the wirelength flow (place.DefaultOptions) and its clock is
// set to periodFactor × the critical delay reached, rounded to whole ps so
// the SDC writer's %g round-trips it exactly.
func cmdCalibrate(args []string) error {
	if len(args) > 0 {
		return fmt.Errorf("calibrate takes no arguments, got %v", args)
	}
	var spec inputSpec
	for _, scale := range []int{suiteScale, toySuiteScale} {
		for _, preset := range suitePresets {
			d, con, err := generatePreset(preset, scale)
			if err != nil {
				return err
			}
			st := d.Stats()
			res, err := place.Run(d.Clone(), con, place.DefaultOptions(place.ModeWirelength))
			if err != nil {
				return err
			}
			p, _ := gen.PresetByName(preset)
			rec := suiteDesign{Preset: preset, Scale: scale, GenSeed: p.Seed,
				Cells: st.Cells, Nets: st.Nets, Pins: st.Pins,
				PeriodPS: math.Round(periodFactor * res.STA.CriticalDelay())}
			spec.Suite = append(spec.Suite, rec)
			fmt.Fprintf(os.Stderr, "%s/%d: WL critical delay %.1f ps -> period %.0f ps\n",
				preset, scale, res.STA.CriticalDelay(), rec.PeriodPS)
		}
	}
	wl, _ := findWorkload("scale-200k")
	for _, cells := range []int{wl.scaleCells, toyScaleCells} {
		d, con, err := gen.Generate(gen.DefaultParams("scale", cells, scaleGenSeed))
		if err != nil {
			return err
		}
		st := d.Stats()
		spec.Scale = append(spec.Scale, scaleDesign{TargetCells: cells, GenSeed: scaleGenSeed,
			Cells: st.Cells, Nets: st.Nets, Pins: st.Pins, PeriodPS: math.Round(con.Period)})
	}
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
