// Command perfbench is paratime's end-to-end benchmark. It generates a
// seeded workload in-process, drives it through the program's public
// surfaces (spec.Run, sweep.Run, the HTTP server's handler), checks
// every operation's output, and prints the metrics as one JSON object on
// the last line of standard output. Run it from the repository root,
// which holds the files it reads (TIGHTNESS.json, perfbench/testdata):
//
//	bash perfbench/run.sh --workload analyze-cold --seed 1 --seconds 40 --trace 0
//
// With --trace 0 the object carries the end-to-end metrics, measured
// untraced; with --trace 1 a separate traced run reports per-layer self
// times and counts from spans recorded around the calls into each
// layer, and writes the spans to .bench_build/ on exit. A human-readable
// table of every metric goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// defaultSeed is the seed whose per-operation reference digests are
// committed under testdata/.
const defaultSeed = 1

// workloads maps each workload name to its driver.
var workloads = map[string]func(*run) error{
	"analyze-cold":  runAnalyzeCold,
	"sweep-grid":    runSweepGrid,
	"explore-exact": runExploreExact,
	"serve-mix":     runServeMix,
}

func main() {
	name := flag.String("workload", "analyze-cold", "workload to run: analyze-cold, sweep-grid, explore-exact or serve-mix")
	seed := flag.Int64("seed", defaultSeed, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	record := flag.String("record-digests", "", "write the per-operation output digests of this run to the file")
	worker := flag.Bool("explore-worker", false, "internal: run explore-exact operations read from standard input")
	flag.Parse()
	if *worker {
		if err := exploreWorker(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	drive, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	r := newRun(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err := drive(r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r.set("error_rate", float64(r.failed)/float64(max(r.attempted, 1)))
	if *record != "" {
		if err := r.writeDigests(*record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	if r.traced {
		if err := r.tr.write(fmt.Sprintf(".bench_build/trace-%s-%d.json", r.workload, r.seed)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	r.report(os.Stdout, os.Stderr)
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// host describes where a result was measured.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Workload   string `json:"workload"`
	Traced     bool   `json:"traced"`
}

// commit names the source revision the binary was built from, as the
// go command stamped it; a build outside a git checkout has none.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}

// report prints every metric and the first failures to info, and the
// host record and the result object, as the last line, to out. The
// end-to-end run's result carries the gated end-to-end metrics (see
// e2eGated) the workload measured (serve-mix's concurrent requests have
// no per-request CPU time); the traced run's carries every per-layer
// metric.
func (r *run) report(out, info *os.File) {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Seed: r.seed, Workload: r.workload, Traced: r.traced}
	hb, err := json.Marshal(h)
	if err != nil {
		panic(err)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(info, "  %-28s %14.4f %s\n", n, m.Value, m.Unit)
	}
	for _, f := range r.failures {
		fmt.Fprintf(info, "  FAILED %s\n", f)
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	keep := e2eGated
	if r.traced {
		keep = layerMetrics
	}
	for _, n := range keep {
		if _, ok := r.metrics[n]; ok || r.traced {
			res.Metrics[n] = metric{Value: r.metrics[n].Value, Unit: units[n]}
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(out, "host %s\n%s\n", hb, b)
}
