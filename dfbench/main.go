// Command dfbench is the end-to-end benchmark of dfserve. It boots the
// real dfserve binary, drives it from this single process over at most
// two connections, checks every response, and prints one result line.
//
//	bash dfbench/run.sh --workload gateway --seed 1 --seconds 10 --trace 0
//	bash dfbench/run.sh --workload all --seed 1 --seconds 10 --trace 1
//
// run.sh builds dfserve and this command from source into .bench_build/
// and runs it from the repository root. Workloads (see workloads.go and
// BENCHMARK.json for why each is shaped as it is):
//
//   - ingest-durable: observe-only, WAL with -fsync batch, open loop.
//   - watch-wide: observe-only over 512 groups with metric thresholds.
//   - gateway: decide and report traffic against installed repair plans.
//
// With --trace 0 a run sets up from scratch setupRuns times (setup_s is
// the median), warms up for two seconds, and measures for --seconds;
// each timed metric is a median over the phase's one-second windows in
// which the hypervisor stole little CPU (drive.go).
// With --trace 1 it measures an untraced and then a traced phase of
// --seconds each, then replays the identical stream in-process through
// the public calls dfserve's handlers make, timing each layer
// (replay.go). Spans go to .bench_build/trace/<workload>.spans.jsonl.
//
// The last line of standard output is the JSON result:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// The line before it carries the host and run metadata. A correctness
// failure prints correct=false and exits 1; a harness failure prints no
// result and exits 1.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "workload seed; dfserve receives only the generated requests")
	seconds := fs.Int("seconds", 10, "measured seconds per phase")
	trace := fs.Int("trace", 0, "1 measures per-layer metrics from a traced phase and an in-process replay")
	dfserveBin := fs.String("dfserve", ".bench_build/dfserve", "dfserve binary")
	workDir := fs.String("work-dir", ".bench_build", "directory for data, traces and results")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || *name == "" {
		fmt.Fprintln(stderr, "dfbench: need --workload, --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	selected := workloads
	if *name != "all" {
		wl, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "dfbench:", err)
			return 2
		}
		selected = []*workload{wl}
	}
	if _, err := os.Stat(*dfserveBin); err != nil {
		fmt.Fprintln(stderr, "dfbench:", err)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opts := runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1, dfserveBin: *dfserveBin, workDir: *workDir}
	var results []*result
	for _, wl := range selected {
		fmt.Fprintf(stderr, "dfbench: %s seed=%d seconds=%d trace=%d\n", wl.name, *seed, *seconds, *trace)
		res, err := runWorkload(ctx, wl, opts)
		var gate *gateError
		switch {
		case errors.As(err, &gate):
			fmt.Fprintln(stderr, "dfbench:", err)
			res = &result{workload: wl.name, meta: map[string]any{"gate_error": gate.err.Error()}}
		case err != nil:
			fmt.Fprintf(stderr, "dfbench: %s: %v\n", wl.name, err)
			return 1
		}
		if err := writeResultFile(opts, res); err != nil {
			fmt.Fprintln(stderr, "dfbench:", err)
			return 1
		}
		results = append(results, res)
	}

	final := combine(results)
	for _, res := range results {
		printTable(stdout, res)
	}
	meta := map[string]any{}
	for _, res := range results {
		meta[res.workload] = res.meta
	}
	line, err := json.Marshal(map[string]any{"meta": meta})
	if err != nil {
		fmt.Fprintln(stderr, "dfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	line, err = json.Marshal(final)
	if err != nil {
		fmt.Fprintln(stderr, "dfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !final.Correct {
		return 1
	}
	return 0
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// combine folds the workloads' results into the final line. With one
// workload the metric names are BENCHMARK.json's; with several each is
// prefixed by its workload.
func combine(results []*result) jsonResult {
	out := jsonResult{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, res := range results {
		out.Correct = out.Correct && res.correct
		out.Attempted += res.attempted
		out.Failed += res.failed
		for _, m := range res.metrics {
			key := m.name
			if len(results) > 1 {
				key = res.workload + "/" + m.name
			}
			out.Metrics[key] = jsonMetric{Value: m.value, Unit: m.unit}
		}
	}
	return out
}

func printTable(w io.Writer, res *result) {
	fmt.Fprintf(w, "%s: correct=%v attempted=%d failed=%d\n", res.workload, res.correct, res.attempted, res.failed)
	for _, m := range res.metrics {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", m.name, m.value, m.unit)
	}
}

// writeResultFile keeps every run's result with its metadata under
// <work-dir>/results.
func writeResultFile(o runOpts, res *result) error {
	dir := filepath.Join(o.workDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	metrics := map[string]jsonMetric{}
	for _, m := range res.metrics {
		metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	b, err := json.MarshalIndent(map[string]any{
		"correct": res.correct, "attempted": res.attempted, "failed": res.failed,
		"metrics": metrics, "meta": res.meta,
	}, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if o.trace {
		trace = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", res.workload, o.seed, trace))
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
