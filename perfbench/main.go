// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It builds a TerraDir deployment in-process, drives one workload against it
// for a fixed wall-clock time, checks every answer against values derived
// independently of the program, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload gw-zipf --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// a traced run adds spans, registry deltas and a CPU profile and prints the
// per-layer metrics instead. See README.md for the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env carries one run's arguments to a workload.
type env struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	smoke    bool   // tiny sizes for the benchmark's own tests
	nodes    int    // namespace size override (0 = the workload's own)
	workdir  string // scratch space (data directories, span files)
	tr       *tracer
}

// outcome is what a workload hands back: operation counts, the answer
// checks, and the metric values of the mode it ran in.
type outcome struct {
	attempted, failed int64
	check             *checker
	metrics           map[string]float64
	config            map[string]any // workload shape, echoed in the host line
}

type workloadFunc func(e *env) (*outcome, error)

var workloads = map[string]workloadFunc{
	"gw-zipf":    runGwZipf,
	"direct-nc":  runDirectNc,
	"persist-nc": runPersistNc,
	"sim-shift":  runSimShift,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: gw-zipf, direct-nc, persist-nc or sim-shift")
		seed    = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 10, "length of the measured phase, seconds")
		trace   = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		workdir = flag.String("workdir", ".bench_build", "scratch directory for data directories and span files")
		nodes   = flag.Int("nodes", 0, "file-system namespace size override for direct-nc, persist-nc and the repros (0 = the workload's own)")
		repro   = flag.String("repro", "", "instead of a workload, reproduce a program fault: "+strings.Join(reproNames(), ", "))
	)
	flag.Parse()
	if *repro != "" {
		fn, ok := repros[*repro]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: unknown -repro %q\n", *repro)
			os.Exit(2)
		}
		e := &env{seed: *seed, seconds: *seconds, workdir: *workdir, nodes: *nodes, tr: newTracer()}
		if err := os.MkdirAll(e.workdir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		if err := fn(e); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *repro, err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	e := &env{
		workload: *name,
		seed:     *seed,
		seconds:  *seconds,
		traced:   *trace == 1,
		nodes:    *nodes,
		workdir:  *workdir,
		tr:       newTracer(),
	}
	res, err := execute(e, run)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	out, _ := json.Marshal(res)
	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "%s\n", out)
	w.Flush()
}

// execute runs one workload and assembles its result, printing the host and
// configuration line first. Checks that fail are reported on stderr and turn
// the result's correct flag false.
func execute(e *env, run workloadFunc) (*result, error) {
	if err := os.MkdirAll(e.workdir, 0o755); err != nil {
		return nil, err
	}
	out, err := run(e)
	if err != nil {
		return nil, err
	}
	if out.attempted < 1 {
		return nil, fmt.Errorf("no operation attempted")
	}
	host := hostInfo()
	host["workload"] = e.workload
	host["seed"] = e.seed
	host["seconds"] = e.seconds
	host["trace"] = e.traced
	host["config"] = out.config
	host["ttl_reissues"] = ttlReissues.Load()
	line, _ := json.Marshal(host)
	fmt.Printf("host %s\n", line)
	if n := ttlReissues.Load(); n > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d lookups answered FailTTL and were re-issued from another server\n", n)
	}
	for _, p := range out.check.failures() {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	if e.traced {
		if path, err := e.tr.write(e.workdir, e.workload, e.seed); err != nil {
			return nil, err
		} else {
			fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
		}
	}
	res := &result{
		Correct:   out.check.ok(),
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	set := endToEndMetrics
	if e.traced {
		set = perLayerMetrics
	}
	for _, m := range set {
		v, ok := out.metrics[m.name]
		if !ok && !e.traced {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	for k := range out.metrics {
		if !known(set, k) {
			return nil, fmt.Errorf("metric %s is not declared", k)
		}
	}
	return res, nil
}

// hostInfo records the machine and the program defaults that shape the
// numbers.
func hostInfo() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"defaults":   programDefaults(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

type metricDef struct{ name, unit string }

func known(set []metricDef, name string) bool {
	for _, m := range set {
		if m.name == name {
			return true
		}
	}
	return false
}
