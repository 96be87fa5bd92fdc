// Command dps-benchguard maintains the repository's benchmark regression
// baseline (BENCH_baseline.json) and gates CI on it.
//
// The baseline has three sections: go-bench microbenchmark metrics
// (ms/op and allocs/op, parsed from `go test -bench` output), dps-bench
// experiment wall-clocks (elapsed_ms per experiment, parsed from
// `dps-bench -json` output), and gauges — seed-deterministic protocol
// metrics lifted from the scale records (routing_bytes_per_node,
// forwarded_msgs, for "scale" and "scale+cover" separately), gated at
// the strict alloc tolerance since they carry no machine noise. CI
// regenerates the inputs and compares:
// any tracked benchmark regressing by more than the tolerance (default
// 15%) in ms/op or allocs/op — or any tracked experiment in elapsed_ms —
// fails the run. Improvements never fail; new benchmarks absent from the
// baseline are reported but pass (commit an updated baseline to track
// them).
//
//	go test -run '^$' -bench 'Table1Protocol$|Fig3a$' -benchmem . > bench.txt
//	go run ./cmd/dps-bench -experiment table1 -scale 0.1 -json > dps.json
//	go run ./cmd/dps-benchguard -bench bench.txt -dps dps.json           # check
//	go run ./cmd/dps-benchguard -bench bench.txt -dps dps.json -update   # rebaseline
//
// Alloc counts are deterministic for this protocol, so alloc
// regressions carry the strict default tolerance and are near-certain
// real regressions. Time-based metrics are machine-sensitive: they get
// their own -time-tolerance (raise it on noisy shared runners — the
// committed baseline records one machine's numbers as a trajectory
// anchor), and baselines under -min-time-ms are never time-gated at all
// (a 0.002 ms metric regressing "20%" is scheduler jitter, not a
// regression; its allocs still gate).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// BenchMetric is one microbenchmark's tracked numbers.
type BenchMetric struct {
	MSPerOp     float64 `json:"ms_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// ZeroAllocs records a measured 0 allocs/op (as opposed to a run
	// without -benchmem). A zero baseline has no ratio to take a
	// tolerance of, so against it any allocation fails.
	ZeroAllocs bool `json:"zero_allocs,omitempty"`
}

// Baseline is the committed BENCH_baseline.json document.
type Baseline struct {
	Note string `json:"note,omitempty"`
	// Benchmarks maps go-bench names (sub-benchmarks included, -cpu
	// suffix stripped) to their metrics.
	Benchmarks map[string]BenchMetric `json:"benchmarks,omitempty"`
	// Experiments maps dps-bench experiment names to elapsed_ms.
	Experiments map[string]float64 `json:"experiments,omitempty"`
	// Gauges maps "<experiment>.<metric>" to protocol-level result
	// metrics lifted from dps-bench records (currently the scale run's
	// routing_bytes_per_node and forwarded_msgs, with and without
	// covering). Unlike wall-clocks these are seed-deterministic, so they
	// gate with the strict alloc tolerance.
	Gauges map[string]float64 `json:"gauges,omitempty"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		benchPath = flag.String("bench", "", "path to `go test -bench` output (\"-\" for stdin)")
		dpsPath   = flag.String("dps", "", "comma-separated path(s) to `dps-bench -json` output; documents merge, later files win on name collisions")
		baseline  = flag.String("baseline", "BENCH_baseline.json", "baseline file to check against (or write with -update)")
		update    = flag.Bool("update", false, "write the parsed metrics as the new baseline instead of checking")
		tolerance = flag.Float64("tolerance", 0.15, "allowed fractional regression in allocs/op before failing")
		timeTol   = flag.Float64("time-tolerance", 0.15, "allowed fractional regression in ms/op and elapsed_ms before failing (raise on noisy shared runners)")
		minTimeMS = flag.Float64("min-time-ms", 1.0, "time metrics with a baseline below this are too noise-dominated to gate and are skipped (their allocs still gate)")
		note      = flag.String("note", "", "with -update: note recorded in the baseline")
	)
	flag.Parse()
	if *benchPath == "" && *dpsPath == "" {
		fmt.Fprintln(os.Stderr, "dps-benchguard: need -bench and/or -dps input")
		return 2
	}

	current := Baseline{Note: *note}
	if *benchPath != "" {
		metrics, err := parseBenchOutput(*benchPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dps-benchguard:", err)
			return 2
		}
		if len(metrics) == 0 {
			fmt.Fprintln(os.Stderr, "dps-benchguard: no benchmark lines found in", *benchPath)
			return 2
		}
		current.Benchmarks = metrics
	}
	if *dpsPath != "" {
		exps, gauges, err := parseDPSBenchAll(*dpsPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dps-benchguard:", err)
			return 2
		}
		current.Experiments = exps
		current.Gauges = gauges
	}

	if *update {
		data, err := json.MarshalIndent(current, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "dps-benchguard:", err)
			return 1
		}
		if err := os.WriteFile(*baseline, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "dps-benchguard:", err)
			return 1
		}
		fmt.Printf("dps-benchguard: wrote %s (%d benchmarks, %d experiments, %d gauges)\n",
			*baseline, len(current.Benchmarks), len(current.Experiments), len(current.Gauges))
		return 0
	}

	baseData, err := os.ReadFile(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dps-benchguard:", err)
		return 2
	}
	var base Baseline
	if err := json.Unmarshal(baseData, &base); err != nil {
		fmt.Fprintf(os.Stderr, "dps-benchguard: parsing %s: %v\n", *baseline, err)
		return 2
	}

	failures := compare(base, current, compareLimits{
		AllocTol:  *tolerance,
		TimeTol:   *timeTol,
		MinTimeMS: *minTimeMS,
	})
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "dps-benchguard: %d regression(s) beyond %.0f%% allocs / %.0f%% time:\n",
			len(failures), *tolerance*100, *timeTol*100)
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "  "+f)
		}
		return 1
	}
	fmt.Printf("dps-benchguard: no regressions beyond %.0f%% allocs / %.0f%% time (%d benchmarks, %d experiments checked)\n",
		*tolerance*100, *timeTol*100, len(current.Benchmarks), len(current.Experiments))
	return 0
}

// compareLimits parameterises the regression gate: alloc counts are
// deterministic and carry the strict tolerance; wall-clock metrics get
// their own (typically looser) tolerance, and baselines under the
// millisecond floor are pure scheduler noise and are never time-gated.
type compareLimits struct {
	AllocTol  float64
	TimeTol   float64
	MinTimeMS float64
}

// compare returns one line per metric regressing beyond its tolerance.
// Metrics missing from either side are skipped (reported as info on
// stdout by the caller via the summary counts).
func compare(base, current Baseline, limits compareLimits) []string {
	var failures []string
	check := func(name, metric string, baseVal, curVal, tolerance float64) {
		if baseVal <= 0 {
			return
		}
		if curVal > baseVal*(1+tolerance) {
			failures = append(failures, fmt.Sprintf("%s %s: %.3f -> %.3f (+%.1f%%)",
				name, metric, baseVal, curVal, (curVal/baseVal-1)*100))
		}
	}
	checkTime := func(name, metric string, baseVal, curVal float64) {
		if baseVal < limits.MinTimeMS {
			return // noise-dominated: skip
		}
		check(name, metric, baseVal, curVal, limits.TimeTol)
	}
	names := make([]string, 0, len(current.Benchmarks))
	for name := range current.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		baseM, ok := base.Benchmarks[name]
		if !ok {
			continue // new benchmark: tracked once the baseline updates
		}
		curM := current.Benchmarks[name]
		checkTime(name, "ms/op", baseM.MSPerOp, curM.MSPerOp)
		check(name, "allocs/op", baseM.AllocsPerOp, curM.AllocsPerOp, limits.AllocTol)
		if baseM.ZeroAllocs && curM.AllocsPerOp > 0 {
			failures = append(failures, fmt.Sprintf("%s allocs/op: 0 -> %.0f", name, curM.AllocsPerOp))
		}
	}
	expNames := make([]string, 0, len(current.Experiments))
	for name := range current.Experiments {
		expNames = append(expNames, name)
	}
	sort.Strings(expNames)
	for _, name := range expNames {
		if baseVal, ok := base.Experiments[name]; ok {
			checkTime(name, "elapsed_ms", baseVal, current.Experiments[name])
		}
	}
	gaugeNames := make([]string, 0, len(current.Gauges))
	for name := range current.Gauges {
		gaugeNames = append(gaugeNames, name)
	}
	sort.Strings(gaugeNames)
	for _, name := range gaugeNames {
		// Gauges are seed-deterministic protocol metrics (routing bytes,
		// tree forwards), not wall-clocks: strict tolerance, no time floor.
		if baseVal, ok := base.Gauges[name]; ok {
			check(name, "gauge", baseVal, current.Gauges[name], limits.AllocTol)
		}
	}
	return failures
}

// benchLine matches one go-bench result line, e.g.
//
//	BenchmarkTable1Protocol-8   6   182000000 ns/op   54900000 B/op   397834 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(.*)$`)

var allocsField = regexp.MustCompile(`([\d.]+) allocs/op`)

// parseBenchOutput extracts ms/op and allocs/op per benchmark from
// `go test -bench` text. Repeated names (e.g. -count > 1) keep the last
// occurrence.
func parseBenchOutput(path string) (map[string]BenchMetric, error) {
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	out := make(map[string]BenchMetric)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		metric := BenchMetric{MSPerOp: ns / 1e6}
		if am := allocsField.FindStringSubmatch(m[3]); am != nil {
			metric.AllocsPerOp, _ = strconv.ParseFloat(am[1], 64)
			metric.ZeroAllocs = metric.AllocsPerOp == 0
		}
		out[m[1]] = metric
	}
	return out, sc.Err()
}

// parseDPSBenchAll merges one or more comma-separated `dps-bench -json`
// documents into a single experiment -> elapsed_ms table plus a gauge
// table. Experiments excluded from `-experiment all` (throughput,
// conform, scale) arrive as separate documents; later files win on name
// collisions.
func parseDPSBenchAll(paths string) (map[string]float64, map[string]float64, error) {
	merged := make(map[string]float64)
	gauges := make(map[string]float64)
	for _, path := range strings.Split(paths, ",") {
		exps, gs, err := parseDPSBench(strings.TrimSpace(path))
		if err != nil {
			return nil, nil, err
		}
		for name, ms := range exps {
			merged[name] = ms
		}
		for name, v := range gs {
			gauges[name] = v
		}
	}
	if len(gauges) == 0 {
		gauges = nil
	}
	return merged, gauges, nil
}

// parseDPSBench extracts experiment -> elapsed_ms plus the
// seed-deterministic gauges from a `dps-bench -json` document. Gauges
// come from the scale records ("scale", "scale+cover"): routing bytes
// per node and measured-phase tree forwards, keyed
// "<record>.<metric>".
func parseDPSBench(path string) (map[string]float64, map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var doc struct {
		Experiments []struct {
			Experiment string          `json:"experiment"`
			ElapsedMS  float64         `json:"elapsed_ms"`
			Result     json.RawMessage `json:"result"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	out := make(map[string]float64, len(doc.Experiments))
	gauges := make(map[string]float64)
	for _, e := range doc.Experiments {
		out[e.Experiment] = e.ElapsedMS
		if e.Experiment != "scale" && e.Experiment != "scale+cover" {
			continue
		}
		var sr struct {
			RoutingBytesPerNode float64 `json:"routing_bytes_per_node"`
			ForwardedMsgs       float64 `json:"forwarded_msgs"`
		}
		if err := json.Unmarshal(e.Result, &sr); err != nil {
			return nil, nil, fmt.Errorf("parsing %s record of %s: %w", e.Experiment, path, err)
		}
		gauges[e.Experiment+".routing_bytes_per_node"] = sr.RoutingBytesPerNode
		gauges[e.Experiment+".forwarded_msgs"] = sr.ForwardedMsgs
	}
	return out, gauges, nil
}
