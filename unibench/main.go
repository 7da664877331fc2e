// Command unibench is the repository's benchmark: one workload per
// process, end-to-end metrics from an untraced run (--trace 0) or
// per-layer metrics from a traced run (--trace 1). Every input comes
// from internal/benchgen, every witness is checked, and the last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": 1101, "failed": 0, "metrics": {"setup_s": {"value": 6.41, "unit": "s"}, ...}}
//
// Run it from the repository root with
//
//	bash unibench/run.sh --workload serve-hot --seed 1 --seconds 8 --trace 0
//
// which is go run with the build cache kept under .bench_build/.
// README.md beside this file lists the workloads, the metrics and the
// end-to-end metric each per-layer number should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64 // draws the order of the serve requests
	seconds  int    // sizes the fixed amount of timed work
	traced   bool   // per-layer run: untraced and traced timed phases
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("unibench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed: the order of the serve requests; the work is the same for every seed")
	seconds := fs.Int("seconds", 8, "timed work, sized to take about this many seconds on a 2-vCPU VM")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "usage: unibench --workload {%s} --seed N --seconds S --trace {0|1}\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	cfg := config{workload: w.name, seed: *seed, seconds: *seconds, traced: *trace == 1}
	res, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "unibench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintf(stdout, "workload   %s seed=%d seconds=%d trace=%d\n", w.name, cfg.seed, cfg.seconds, *trace)
	if err := res.write(stdout); err != nil {
		fmt.Fprintf(stderr, "unibench: writing result: %v\n", err)
		return 1
	}
	for _, p := range res.problems {
		fmt.Fprintf(stderr, "unibench: %s: check failed: %s\n", w.name, p)
	}
	return 0
}

// metric is one named measurement with its unit.
type metric struct {
	name, unit string
	value      float64
}

// count is an integer the program reports that must repeat exactly for
// a given seed.
type count struct {
	name  string
	value int64
}

// result is what one workload run reports.
type result struct {
	attempted, failed int      // requests issued and requests that failed
	problems          []string // failed checks other than per-request ones
	digest            string   // SHA-256 of the witness bitstrings in request order
	exact             []count
	notes             []string // report lines printed before the metrics
	metrics           []metric
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) add(name, unit string, value float64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value})
}

// write prints the human-readable report and, last, the JSON line.
func (r *result) write(w io.Writer) error {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	fmt.Fprintf(w, "digest     sha256:%s\n", r.digest)
	var ex []string
	for _, c := range r.exact {
		ex = append(ex, fmt.Sprintf("%s=%d", c.name, c.value))
	}
	fmt.Fprintf(w, "exact      %s\n", strings.Join(ex, " "))
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   r.failed == 0 && len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]value{},
	}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "metric     %-28s %14.6g %s\n", m.name, m.value, m.unit)
		out.Metrics[m.name] = value{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
