package main

// Self-test of the benchmark at toy size. Run it from the repository root:
//
//	cd _bench && go test ./...
//
// The test binary doubles as the benchmark command (see TestMain), so each
// case runs the real command line, input-generation child process included,
// in a scratch root.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestMain(m *testing.M) {
	if os.Getenv("BENCH_SELFTEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) *benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return &s
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	env       map[string]any
	stderr    string
}

// runBench runs the benchmark command at toy size in root and parses its
// result line.
func runBench(t *testing.T, root string, args ...string) *result {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, append([]string{"--toy", "--seconds", "0.5"}, args...)...)
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "BENCH_SELFTEST_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("bench %v: %v\n%s", args, err, stderr.String())
	}
	var lines []string
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) == 0 {
		t.Fatalf("bench %v printed nothing\n%s", args, stderr.String())
	}
	raw := map[string]json.RawMessage{}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	keys := make([]string, 0, len(raw))
	for k := range raw {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("result keys %v, want %v", keys, want)
	}
	r := result{stderr: stderr.String()}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatal(err)
	}
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, "env "); ok {
			if err := json.Unmarshal([]byte(rest), &r.env); err != nil {
				t.Fatalf("env line: %v", err)
			}
		}
	}
	return &r
}

func TestWorkloadsMatchSpec(t *testing.T) {
	var got []string
	for _, w := range readSpec(t).Workloads {
		got = append(got, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", got, want)
	}
}

// TestEveryMetricPrinted runs each workload at toy size, untraced and
// traced, and checks that exactly the named metrics are printed with their
// units, every design run passes its checks, and the run environment is
// recorded.
func TestEveryMetricPrinted(t *testing.T) {
	spec := readSpec(t)
	root := t.TempDir()
	for _, w := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			r := runBench(t, root, "--workload", w.Name, "--seed", "7", "--trace", trace)
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace %s: correct %v attempted %d failed %d", w.Name, trace, r.Correct, r.Attempted, r.Failed)
			}
			want := map[string]string{}
			if trace == "0" {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, want %d", w.Name, trace, len(r.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := r.Metrics[name]
				if !ok {
					t.Errorf("%s trace %s: metric %s missing", w.Name, trace, name)
				} else if m.Unit != unit {
					t.Errorf("%s trace %s: metric %s unit %q, want %q", w.Name, trace, name, m.Unit, unit)
				}
			}
			for _, k := range []string{"go", "gomaxprocs", "nproc", "commit", "seed"} {
				if _, ok := r.env[k]; !ok {
					t.Errorf("%s trace %s: env lacks %s", w.Name, trace, k)
				}
			}
		}
	}
}

// TestSeededFaultCounted checks that each seeded defect is counted as a
// failed design run instead of passing, and by the check it targets: the
// legality check for a moved cell, the fresh-STA comparison for a perturbed
// reported WNS.
func TestSeededFaultCounted(t *testing.T) {
	for _, c := range []struct{ workload, fault, trace, failure string }{
		{"dt-suite", "overlap", "0", "FAILED superblue4: illegal placement"},
		{"nw-suite", "wns", "0", "FAILED superblue4: fresh STA gives"},
		{"scale-200k", "wns", "0", "FAILED scale: fresh STA gives"},
		{"dt-suite", "overlap", "1", "FAILED superblue4: illegal placement"},
	} {
		r := runBench(t, t.TempDir(), "--workload", c.workload, "--seed", "3", "--trace", c.trace, "--fault", c.fault)
		if r.Correct || r.Failed < 1 {
			t.Errorf("%s with fault %s (trace %s): correct %v failed %d, want the fault counted",
				c.workload, c.fault, c.trace, r.Correct, r.Failed)
		}
		if !strings.Contains(r.stderr, c.failure) {
			t.Errorf("%s with fault %s (trace %s): no %q line\n%s",
				c.workload, c.fault, c.trace, c.failure, r.stderr)
		}
	}
}

// TestNondeterminismCounted tampers with the quality a first run recorded
// and checks that the next run of the set counts the mismatch.
func TestNondeterminismCounted(t *testing.T) {
	root := t.TempDir()
	if r := runBench(t, root, "--workload", "dt-suite", "--seed", "5"); !r.Correct {
		t.Fatalf("clean run failed: %+v", r)
	}
	files, err := filepath.Glob(filepath.Join(root, ".bench_build", "records", "*-dt-suite-*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("record files %v (%v)", files, err)
	}
	b, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]quality{}
	if err := json.Unmarshal(b, &seen); err != nil {
		t.Fatal(err)
	}
	q := seen["superblue4"]
	q.HPWL ^= 1
	seen["superblue4"] = q
	if err := os.WriteFile(files[0], []byte(mustJSON(seen)), 0o644); err != nil {
		t.Fatal(err)
	}
	if r := runBench(t, root, "--workload", "dt-suite", "--seed", "5"); r.Correct || r.Failed < 1 {
		t.Fatalf("tampered record not counted: correct %v failed %d", r.Correct, r.Failed)
	}
}
