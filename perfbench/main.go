// Command perfbench is the repository's end-to-end benchmark. It asks
// batteries of what-if questions of the simulator in-process — the
// way a capacity planner (explore workloads) or a prediction service
// (serve-mixed) would — checks every answer against a reference
// computed outside timing, and prints the end-to-end metrics, or with
// -trace 1 the per-layer metrics, as the last line of its output:
//
//	go run . -workload explore-timing -seed 1 -seconds 25 -trace 0
//
// run.sh builds and runs it from a repository checkout with every
// build cache kept inside the checkout. README.md records why each
// workload exists, what each metric estimates and how steady it is.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// maxProcs pins GOMAXPROCS (never above the CPUs available) so runs on
// larger machines stay comparable with the 2-vCPU reference machine.
const maxProcs = 2

// setups is how many fresh set-ups a run times; setup_s is their median.
const setups = 9

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    uint64
	measure time.Duration
	traced  bool
}

var workloads = map[string]func(runConfig) (*report, error){
	"explore-timing":     runExploreTiming,
	"explore-structural": runExploreStructural,
	"serve-mixed":        runServeMixed,
}

func main() {
	workload := flag.String("workload", "", "workload: explore-timing, explore-structural or serve-mixed")
	seed := flag.Uint64("seed", 1, "input seed: the same seed generates the same questions and requests")
	seconds := flag.Int("seconds", 10, "measured seconds per run (set-up and reference checks are extra)")
	traceFlag := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload explore-timing|explore-structural|serve-mixed, -seconds ≥ 1 and -trace 0|1")
		os.Exit(2)
	}
	fp := pinFingerprint()
	rep, err := run(runConfig{seed: *seed, measure: time.Duration(*seconds) * time.Second, traced: *traceFlag == 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep.workload = *workload
	if err := rep.print(os.Stdout, fp, *traceFlag == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// fingerprint identifies the machine and runtime a run measured.
type fingerprint struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go"`
	GOGC       int    `json:"gogc"`
}

// pinFingerprint pins GOMAXPROCS to min(maxProcs, nproc) and records
// the machine the run measures on.
func pinFingerprint() fingerprint {
	procs := min(maxProcs, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)
	gogc := debug.SetGCPercent(100)
	debug.SetGCPercent(gogc)
	return fingerprint{
		GOMAXPROCS: procs,
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuName(),
		GoVersion:  runtime.Version(),
		GOGC:       gogc,
	}
}

// metric is one named measurement.
type metric struct {
	name, unit string
	value      float64
}

// report is a workload's outcome: every answer attempted and failed
// (a failure is an error or an answer differing from its reference),
// the end-to-end and per-layer metrics, and free-form notes (sample
// counts, estimator bases) printed above the result line.
type report struct {
	workload          string
	attempted, failed int
	endToEnd          []metric
	perLayer          []metric
	notes             []string
}

func (r *report) e2e(name, unit string, v float64) {
	r.endToEnd = append(r.endToEnd, metric{name, unit, v})
}

func (r *report) layer(name, unit string, v float64) {
	r.perLayer = append(r.perLayer, metric{name, unit, v})
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check counts one verified answer.
func (r *report) check(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
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

// print writes the human-readable report and, as the last line, the
// JSON result carrying the end-to-end metrics (or the per-layer ones
// for a traced run).
func (r *report) print(w io.Writer, fp fingerprint, traced bool) error {
	fpJSON, err := json.Marshal(fp)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "workload %s  fingerprint %s\n", r.workload, fpJSON)
	for _, n := range r.notes {
		fmt.Fprintln(w, "  "+n)
	}
	failPct := 0.0
	if r.attempted > 0 {
		failPct = 100 * float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "  fail_pct = %.4f %%  (%d failed or wrong of %d attempted, every answer verified)\n", failPct, r.failed, r.attempted)
	ms := r.endToEnd
	if traced {
		ms = r.perLayer
	}
	out := jsonResult{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]jsonMetric, len(ms)),
	}
	for _, m := range ms {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is not finite", m.name)
		}
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", m.name, m.value, m.unit)
		out.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func msOf(d time.Duration) float64 { return float64(d) / 1e6 }
