// Command perfbench is countryrank's benchmark. One command runs a named
// workload, checks the program's outputs, and prints every metric by name
// with its unit; the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root (perfbench/run.sh builds this program):
//
//	perfbench --workload epoch-synth|crank-mrt|serve|rollover
//	          --seed N --seconds S --trace 0|1
//
// With --trace 0 the metrics are the end-to-end ones BENCHMARK.json lists;
// with --trace 1 they are its per-layer ones, from a run that times every
// layer. README.md in this directory defines each workload and metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// runConfig is what every workload receives.
type runConfig struct {
	ctx     context.Context
	seed    int64
	seconds time.Duration
	trace   bool
	dir     string // scratch directory inside the checkout, removed at exit
	host    *hostInfo
}

var workloads = map[string]func(runConfig) (*report, error){
	"epoch-synth": runEpochSynth,
	"crank-mrt":   runCrankMRT,
	"serve":       runServe,
	"rollover":    runRollover,
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload to run: epoch-synth, crank-mrt, serve or rollover")
	seed := flag.Int64("seed", 1, "workload seed: picks the worlds and the request mix")
	seconds := flag.Int("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	coldEpoch := flag.Int64("cold-epoch", 0, "run one cold epoch of this world seed, print its wall seconds and digest, and exit (set-up samples for epoch-synth)")
	golden := flag.Bool("golden", false, "compute the expected-output tables and print them as Go source for golden.go")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *golden {
		return exitOn(printGolden(ctx))
	}
	if *coldEpoch != 0 {
		return exitOn(runColdEpochChild(*coldEpoch, flag.Arg(0)))
	}
	runWorkload, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(sortedKeys(workloads), ", "))
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return exitOn(err)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return exitOn(err)
	}
	dir, err := os.MkdirTemp(".bench_build", "run-"+*workload+"-")
	if err != nil {
		return exitOn(err)
	}
	dir, err = filepath.Abs(dir)
	if err != nil {
		return exitOn(err)
	}
	defer os.RemoveAll(dir)

	host := newHostInfo()
	steal0, total0, stealErr := hostSteal()
	rep, err := runWorkload(runConfig{
		ctx: ctx, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, dir: dir, host: host,
	})
	if steal1, total1, err := hostSteal(); err == nil && stealErr == nil && total1 > total0 {
		host.StealPct = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return exitOn(fmt.Errorf("%s: %w", *workload, err))
	}
	return exitOn(rep.emit(spec, *trace == 1, host))
}

func exitOn(err error) int {
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchSpec is the part of BENCHMARK.json perfbench reads: the metric
// names and units it must print.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark spec: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}

// report collects one run's metric values, operation counts and failed
// output checks.
type report struct {
	values    map[string]float64
	attempted int64
	failed    int64
	problems  []string
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

// op counts one attempted operation, failed when any check in problems
// (empty strings pass) is set.
func (r *report) op(problems ...string) {
	r.attempted++
	bad := false
	for _, p := range problems {
		if p != "" {
			bad = true
			r.problem(p)
		}
	}
	if bad {
		r.failed++
	}
}

// problem records a failed check; the first few are printed.
func (r *report) problem(p string) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, p)
	}
}

// emit prints the metrics of the requested kind, one per line, then the
// host block, then the result line. A value the workload did not set is an
// error for an end-to-end metric and 0 for a per-layer one: a layer that
// does no work in a workload reads 0 there.
func (r *report) emit(spec *benchSpec, traced bool, host *hostInfo) error {
	known := map[string]bool{}
	for _, m := range append(append([]metricSpec{}, spec.EndToEnd...), spec.PerLayer...) {
		known[m.Name] = true
	}
	for name := range r.values {
		if !known[name] {
			return fmt.Errorf("metric %q is not declared in BENCHMARK.json", name)
		}
	}
	list := spec.EndToEnd
	if traced {
		list = spec.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range list {
		v, ok := r.values[m.Name]
		if !ok && !traced {
			return fmt.Errorf("end-to-end metric %q was not measured", m.Name)
		}
		metrics[m.Name] = value{v, m.Unit}
	}
	for _, m := range list {
		fmt.Printf("%-28s %14.6g %s\n", m.Name, metrics[m.Name].Value, m.Unit)
	}
	for _, p := range r.problems {
		fmt.Println("check failed:", p)
	}
	hb, err := json.Marshal(host)
	if err != nil {
		return err
	}
	fmt.Printf("host %s\n", hb)
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(r.problems) == 0 && r.failed == 0, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// hostInfo is the host and load-shape block printed with every result.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	// TimerLate* is how late the generator's clock wakes from a 200µs
	// sleep: the floor under any from-schedule latency it reports.
	TimerLateP50us float64 `json:"timer_late_p50_us"`
	TimerLateP99us float64 `json:"timer_late_p99_us"`
	// StealPct is the share of CPU time the hypervisor took from this
	// machine during the run. Timings of a run with a high share are slow
	// for reasons outside the program.
	StealPct float64 `json:"steal_pct"`
	Load     string  `json:"load"`
	RatePerS float64 `json:"rate_per_s,omitempty"`
	Conns    int     `json:"conns,omitempty"`
}

func newHostInfo() *hostInfo {
	// The generator may use at most one thread per CPU.
	runtime.GOMAXPROCS(min(runtime.GOMAXPROCS(0), runtime.NumCPU()))
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	h := &hostInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Kernel: strings.TrimSpace(string(kernel)),
	}
	h.TimerLateP50us, h.TimerLateP99us = timerLateness(200)
	return h
}

// timerLateness sleeps n times for 200µs on the generator's clock and
// returns the median and p99 overshoot in microseconds.
func timerLateness(n int) (p50, p99 float64) {
	const d = 200 * time.Microsecond
	late := make([]float64, n)
	for i := range late {
		t := time.Now()
		realClock{}.SleepUntil(t.Add(d))
		late[i] = us(time.Since(t) - d)
	}
	return median(late), percentile(late, 0.99)
}
