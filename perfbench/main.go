// Command perfbench is the repository's benchmark: open-loop publish/
// subscribe workloads on the three engines (tcpnet, livenet and the
// cycle simulator), every delivery judged against the semtree oracle.
//
//	bash perfbench/run.sh --workload tcp-stock --seed 1 --seconds 30 --trace 0
//
// from the repository root (EVIDENCE.md records what each workload does
// and why its bounds are what they are).
//
// With --trace 0 it measures the workload untraced and reports its
// end-to-end metrics; with --trace 1 it also measures a traced pass and
// reports per-layer metrics and what tracing cost. The last line of
// standard output is one JSON object; everything before it is a
// human-readable report. The exit status is non-zero when any delivery
// was false or the run could not complete.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// populationSeed draws every workload's initial subscriptions and seeds
// the engines' and nodes' own random streams, so each workload sets up
// the same overlay in every run; --seed drives the traffic: the events,
// the publishers and the moves. With the overlay drawn from --seed
// too, its shape alone moved per-delivery cost and routing state by a
// sixth to a half between seeds, more than any bound could hold.
const populationSeed = 1

type options struct {
	seed    int64
	seconds float64
	traced  bool
	// rate and moveRate override live-game's publish and move rates
	// (per second) when set; they serve the saturation sweep of
	// EVIDENCE.md.
	rate, moveRate float64
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*result, error){
	"tcp-stock": runTCPStock,
	"live-game": runLiveGame,
	"sim-5k":    runSim5k,
}

// endToEnd names the end-to-end metrics every workload reports in its
// JSON line; BENCHMARK.json lists the same names with their bounds. The
// report prints more: the delivery latencies and the CPU time per event,
// which every workload has but which follow the speed of the shared
// two-CPU machine by more than the largest bound allowed (EVIDENCE.md),
// and the metrics only some workloads have.
var endToEnd = []string{
	"setup_s", "delivered_ratio", "msgs_per_delivery", "false_contact_ratio",
	"routing_bytes_per_node", "heap_bytes_per_node",
}

// overheadOf names the end-to-end metrics whose tracing overhead the
// traced run reports: every one that all workloads print.
var overheadOf = append(append([]string(nil), endToEnd...), "lat_p50_ms", "lat_p99_ms", "cpu_ms_per_event")

func main() { os.Exit(bench()) }

// bench runs the benchmark and returns the exit status.
func bench() int {
	name := flag.String("workload", "", "workload: tcp-stock, live-game or sim-5k")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 30, "length of the measured phase, seconds")
	trace := flag.Int("trace", 0, "1 adds a traced pass and reports per-layer metrics")
	rate := flag.Float64("rate", 0, "live-game: publish rate, events/s (0: the workload's own)")
	moveRate := flag.Float64("move-rate", -1, "live-game: move rate, moves/s (-1: the workload's own)")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for span files")
	flag.Parse()
	runner, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload tcp-stock|live-game|sim-5k, --seconds > 0, --trace 0|1")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	o := options{seed: *seed, seconds: *seconds, rate: *rate, moveRate: *moveRate}

	fmt.Printf("perfbench %s seed %d, %.0f s measured, GOMAXPROCS %d, %s\n",
		*name, *seed, *seconds, runtime.GOMAXPROCS(0), runtime.Version())
	plain, err := runner(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printReport("untraced", plain)
	var traced *result
	if *trace == 1 {
		plain.d = nil // only its numbers are needed from here on; let the population go
		o.traced = true
		if traced, err = runner(o); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		traced.layers = layerMetrics(traced, plain)
		printReport("traced", traced)
		fmt.Printf("per-layer metrics (traced pass; engine.* is %s):\n", traced.d.r.tracer.engine)
		for _, m := range traced.layers.list {
			fmt.Println(m)
		}
		printSelfTimes(traced)
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed))
		if err := traced.d.r.tracer.writeSpans(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Printf("spans: %d kept (1 trace in %d), %d over the cap, written to %s\n",
			len(traced.d.r.tracer.spans), spanSample, traced.d.r.tracer.overCap, path)
	}

	attempted, failed := plain.attempted, plain.failed
	falsePairs := plain.falsePairs
	if traced != nil {
		attempted += traced.attempted
		failed += traced.failed
		falsePairs += traced.falsePairs
	}
	line := map[string]any{"correct": falsePairs == 0, "attempted": attempted, "failed": failed}
	if falsePairs > 0 {
		fmt.Printf("INCORRECT: %d false deliveries\n", falsePairs)
		line["metrics"] = map[string]any{}
		emit(line)
		return 1
	}
	ms := map[string]any{}
	if traced == nil {
		for _, name := range endToEnd {
			m, _ := plain.e2e.get(name)
			ms[name] = map[string]any{"value": m.Value, "unit": m.Unit}
		}
	} else {
		for _, m := range traced.layers.list {
			ms[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
		}
	}
	line["metrics"] = ms
	emit(line)
	return 0
}

func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

func printReport(label string, res *result) {
	fmt.Printf("%s pass:\n", label)
	for _, l := range res.report {
		fmt.Println("  " + l)
	}
	fmt.Printf("  ops_attempted %d, ops_failed %d (Subscribe/Unsubscribe/Publish calls; failed: erroring calls and engine drops)\n", res.attempted, res.failed)
	for _, p := range res.problems {
		fmt.Println("  PROBLEM: " + p)
	}
	fmt.Println("end-to-end metrics:")
	for _, m := range res.e2e.list {
		fmt.Println(m)
	}
}
