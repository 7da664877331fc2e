package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark command, so
// each workload below runs in a fresh process as it does when measured.
func TestMain(m *testing.M) {
	if os.Getenv("UNIBENCH_AS_MAIN") == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// report is the parsed standard output of one benchmark run.
type report struct {
	digest, exact string
	Correct       bool `json:"correct"`
	Attempted     int  `json:"attempted"`
	Failed        int  `json:"failed"`
	Metrics       map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func runChild(t *testing.T, args ...string) report {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "UNIBENCH_AS_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("unibench %v: %v\n%s", args, err, stderr.Bytes())
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out)
	}
	for _, l := range lines {
		if f := strings.Fields(l); len(f) > 1 {
			switch f[0] {
			case "digest":
				r.digest = f[1]
			case "exact":
				r.exact = strings.Join(f[1:], " ")
			}
		}
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("unibench %v: correct=%t attempted=%d failed=%d\n%s%s", args, r.Correct, r.Attempted, r.Failed, out, stderr.Bytes())
	}
	return r
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var spec struct {
		EndToEnd []m `json:"end_to_end"`
		PerLayer []m `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, x := range spec.EndToEnd {
		endToEnd[x.Name] = x.Unit
	}
	for _, x := range spec.PerLayer {
		perLayer[x.Name] = x.Unit
	}
	return endToEnd, perLayer
}

func checkMetrics(t *testing.T, r report, want map[string]string) {
	t.Helper()
	if len(r.Metrics) != len(want) {
		t.Errorf("got %d metrics, BENCHMARK.json declares %d", len(r.Metrics), len(want))
	}
	for name, unit := range want {
		if got, ok := r.Metrics[name]; !ok || got.Unit != unit {
			t.Errorf("metric %s: got %+v, want unit %q", name, got, unit)
		}
	}
}

// TestWorkloadsRepeat runs every workload at a tiny size twice, once
// untraced and once traced: both runs must return the same witnesses and
// the same exact counts, and report every declared metric with its unit.
// The work is the same for every seed (serve workloads send a fixed
// request set in an order drawn from it), so the traced run takes
// another seed and must still repeat.
func TestWorkloadsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice; about two minutes")
	}
	endToEnd, perLayer := declared(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			args := []string{"--workload", w.name, "--seconds", "1"}
			a := runChild(t, append(args, "--seed", "7", "--trace", "0")...)
			b := runChild(t, append(args, "--seed", "8", "--trace", "1")...)
			if a.digest == "" || a.digest != b.digest {
				t.Errorf("witness digests differ: %q vs %q", a.digest, b.digest)
			}
			if a.exact == "" || a.exact != b.exact {
				t.Errorf("exact counts differ: %q vs %q", a.exact, b.exact)
			}
			checkMetrics(t, a, endToEnd)
			checkMetrics(t, b, perLayer)
		})
	}
}
