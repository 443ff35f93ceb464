package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

type resultLine struct {
	Correct   *bool `json:"correct"`
	Attempted int   `json:"attempted"`
	Failed    *int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestMetricListsMatchBenchmarkJSON keeps the program's metric lists and
// BENCHMARK.json in step.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.EndToEnd) != len(endToEndUnits) || len(spec.PerLayer) != len(perLayerUnits) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the program %d+%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEndUnits), len(perLayerUnits))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEndUnits[i].name || m.Unit != endToEndUnits[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, program has %s %s", i, m.Name, m.Unit, endToEndUnits[i].name, endToEndUnits[i].unit)
		}
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayerUnits[i].name || m.Unit != perLayerUnits[i].unit {
			t.Errorf("per_layer[%d] = %s %s, program has %s %s", i, m.Name, m.Unit, perLayerUnits[i].name, perLayerUnits[i].unit)
		}
	}
}

// TestSmoke runs every workload at smoke-test size, untraced and traced,
// and checks that the last output line carries every named metric with
// its unit. ward-archive is not in BENCHMARK.json (see README.md,
// "Measured spread") but stays runnable, so it is smoked too.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	spec := loadSpec(t)
	names := []string{"ward-archive"}
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for _, name := range names {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"-workload", name, "-seed", "3", "-seconds", "6", "-trace", trace,
					"-small", "-out", t.TempDir()}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
				}
				if res.Correct == nil || res.Failed == nil || res.Attempted < 1 {
					t.Fatalf("result lacks correct/attempted/failed: %s", lines[len(lines)-1])
				}
				if *res.Failed > 0 {
					t.Logf("%d of %d operations failed:\n%s", *res.Failed, res.Attempted, stdout.String())
				}
				want := spec.EndToEnd
				if trace == "1" {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Value == nil {
						t.Errorf("metric %s missing", m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}
