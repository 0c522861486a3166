package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile is the benchmark's declaration at the repository root.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// runArgs runs the command in process and returns its exit code, the
// printed lines, and the decoded last line.
func runArgs(t *testing.T, args ...string) (int, []string, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if len(lines) > 0 && strings.HasPrefix(lines[len(lines)-1], "{") {
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
		}
	}
	if code != 0 {
		t.Logf("exit %d, stderr:\n%s", code, stderr.String())
	}
	return code, lines, res
}

// TestSmokeEveryMetric runs every workload, declared or not, briefly in
// both modes and checks that every declared metric is printed, by name and
// with its unit, and nothing else, and that no request failed.
func TestSmokeEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the live mesh")
	}
	b := readBenchmarkFile(t)
	if len(b.Workloads) == 0 {
		t.Fatal("BENCHMARK.json declares no workloads")
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("declared workload %s does not exist", w.Name)
		}
	}
	for _, name := range workloadNames() {
		for mode, want := range map[string][]declared{"0": b.EndToEnd, "1": b.PerLayer} {
			t.Run(name+"/trace"+mode, func(t *testing.T) {
				code, lines, res := runArgs(t, "--workload", name, "--seed", "3", "--seconds", "1",
					"--trace", mode, "--trace-out", filepath.Join(t.TempDir(), "spans.json"))
				if code != 0 || !res.Correct {
					t.Fatalf("exit %d, correct %v:\n%s", code, res.Correct, strings.Join(lines, "\n"))
				}
				if res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, declared %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					got, ok := res.Metrics[d.Name]
					if !ok {
						t.Errorf("metric %s not printed", d.Name)
						continue
					}
					if got.Unit != d.Unit {
						t.Errorf("metric %s: unit %q, declared %q", d.Name, got.Unit, d.Unit)
					}
					if !strings.Contains(strings.Join(lines, "\n"), d.Name) {
						t.Errorf("metric %s missing from the readable lines", d.Name)
					}
				}
			})
		}
	}
}

// TestPlantedWrongBodyFails corrupts upstream bodies and expects the
// command to fail.
func TestPlantedWrongBodyFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the live mesh")
	}
	code, lines, res := runArgs(t, "--workload", "signed-small", "--seed", "1", "--seconds", "1", "--trace", "0", "--plant-wrong-body")
	if code == 0 {
		t.Fatalf("a wrong upstream body passed:\n%s", strings.Join(lines, "\n"))
	}
	if res.Correct {
		t.Errorf("result reads correct despite wrong bodies")
	}
	if !strings.Contains(strings.Join(lines, "\n"), "wrong body") {
		t.Errorf("the wrong body is not reported:\n%s", strings.Join(lines, "\n"))
	}
}

// TestSameSeedSameInputs checks that the generated inputs are a function of
// the seed alone.
func TestSameSeedSameInputs(t *testing.T) {
	for name, p := range workloads {
		a, err := json.Marshal(newSpec(p, 42))
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(newSpec(p, 42))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 42 generated different inputs", name)
		}
		c, err := json.Marshal(newSpec(p, 43))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 42 and 43 generated the same inputs", name)
		}
	}
}

// TestGeneratedMix checks the request mix each workload is defined by.
func TestGeneratedMix(t *testing.T) {
	count := func(s *spec, kind string) float64 {
		n := 0
		for _, r := range s.Requests {
			if r.Kind == kind {
				n++
			}
		}
		return float64(n) / float64(len(s.Requests))
	}
	ss := newSpec(workloads["signed-small"], 5)
	if q := count(ss, kindQuery); q < 0.07 || q > 0.13 {
		t.Errorf("signed-small query share %.3f, want about 1 in 10", q)
	}
	if e := count(ss, kindEscaped); e < 0.01 || e > 0.03 {
		t.Errorf("signed-small escaped share %.3f, want about 1 in 50", e)
	}
	ts := newSpec(workloads["tenant-scale"], 5)
	if d := count(ts, kindDeny); d < 0.01 || d > 0.03 {
		t.Errorf("tenant-scale deny-probe share %.3f, want about 1 in 50", d)
	}
	if n := len(ts.serviceConfig(0, 0, 10, 0).Authz); n != 250 {
		t.Errorf("tenant-scale service has %d authz rules, want 250", n)
	}
}
