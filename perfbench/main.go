// Command perfbench is the repository's end-to-end benchmark. It builds an
// OpenEI node in-process, drives a seeded open-loop request schedule
// through one of the node's public serving paths, checks every answer
// against a reference, and prints the metrics as one JSON line.
//
//	perfbench --workload gateway-trickle --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run.
// With --trace 1 it runs the same schedule untraced and then traced (half
// the time each), times every layer from wrappers around its public entry
// points, adds the hop ladder and the plan and walk side passes, writes
// the spans to .bench_build/spans/, and reports the per-layer metrics.
// README.md says why each workload exists and what each metric should
// move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	schedule uint64 // printed on the summary line, not in the JSON

	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: gateway-trickle, vision-stream or scenario-mix")
	seed := flag.Int64("seed", 1, "seed for the schedule, inputs, route mix and model weights")
	seconds := flag.Float64("seconds", 20, "length of the measured schedule in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v)\n", *name, workloadNames())
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	span := time.Duration(*seconds * float64(time.Second))

	var res result
	var err error
	if *trace == 1 {
		res, err = runTraced(w, *seed, span)
	} else {
		res, err = runUntraced(w, *seed, span)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("workload=%s seed=%d seconds=%g trace=%d schedule=%016x sent=%d succeeded=%d failed=%d\n",
		w.name, *seed, *seconds, *trace, res.schedule, res.Attempted, res.Attempted-res.Failed, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
