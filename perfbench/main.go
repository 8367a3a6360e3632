// Command perfbench is the repository benchmark. It drives the library's
// public entry points (deck.Parse, Deck.Lower, deck.RunScenario,
// Result.WriteText and serve.ListenAndServe) with seeded inputs, checks
// every reported temperature against a committed oracle, and prints one
// JSON result line.
//
//	perfbench --workload ref_fresh --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of an untraced
// run. With --trace 1 the workload alternates untraced and traced stretches
// (an in-memory obs.Tracer and a fresh metrics registry), and the result
// carries the per-layer metrics folded from the traced ones plus the
// tracing overhead from the pairs. Lines before the result
// line give provenance, every metric with its unit and sample count, and
// metrics that are printed but not part of the result line.
//
// run.sh builds and runs it from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one named measurement. N is its sample count, 0 when the value
// is not a statistic over samples.
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
}

// result is what one workload run reports.
type result struct {
	attempted int
	failed    int
	metrics   []metric // the result line's metrics
	report    []metric // printed only
	errs      []string // first failures, for diagnosis
}

// config is one run's settings.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
}

func (c config) dur(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}

type workloadFunc func(config, *oracle) (*result, error)

var workloads = map[string]workloadFunc{
	"ref_fresh": runRefFresh,
	"ref_sweep": runRefSweep,
	"serve_mix": runServeMix,
}

func main() {
	name := flag.String("workload", "", "workload: ref_fresh, ref_sweep or serve_mix")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement")
	oracleOut := flag.String("write-oracle", "", "solve every oracle key and write the expectations to this file, then exit")
	flag.Parse()

	if *oracleOut != "" {
		if err := writeOracle(*oracleOut, defaultRelTol); err != nil {
			fatal(err)
		}
		return
	}
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("usage: perfbench --workload {ref_fresh|ref_sweep|serve_mix} --seed N --seconds S --trace {0|1}"))
	}
	o, err := loadOracle()
	if err != nil {
		fatal(err)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%d commit=%s go=%s gomaxprocs=%d numcpu=%d\n",
		*name, cfg.seed, cfg.seconds, *trace, commit(), runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	res, err := run(cfg, o)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", *name, err))
	}
	if err := emit(os.Stdout, res); err != nil {
		fatal(err)
	}
}

// defaultRelTol is the oracle's relative tolerance on maxDT.
const defaultRelTol = 2e-11

// emit prints every metric as a report line, then the result line.
func emit(f *os.File, res *result) error {
	for _, e := range res.errs {
		fmt.Fprintf(f, "failure: %s\n", e)
	}
	all := append(append([]metric(nil), res.metrics...), res.report...)
	for _, m := range all {
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf(" n=%d", m.N)
		}
		fmt.Fprintf(f, "metric %-32s %.6g %s%s\n", m.Name, m.Value, m.Unit, n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0 && res.attempted > 0, res.attempted, res.failed, make(map[string]value)}
	for _, m := range res.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, m.Value)
		}
		out.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n", line)
	return err
}

// commit names the checked-out revision when the working directory is a
// git checkout, "unknown" otherwise.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// sortedNames returns a map's keys in order.
func sortedNames[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
