// Command perfbench is the dcelens benchmark. It drives each layer of the
// reproduction from outside, through public functions, on one of four
// workloads:
//
//	campaign        corpus.Run over default-size seeds, all ten configs, nproc workers, checkpointed
//	campaign-large  the same with larger generator knobs, one worker, no checkpoint
//	triage          Campaign.ReduceFinding and bisect.Regression over a fixed discovery campaign
//	service         two HTTP clients submitting small jobs to an in-process service handler
//
// Usage:
//
//	bash perfbench/run.sh --workload campaign --seed 1 --seconds 20 --trace 0
//
// A timed run (--trace 0) prints the end-to-end metrics; a traced run
// (--trace 1) runs a fixed amount of work with spans around every layer
// call and prints the per-layer metrics. The last line of standard output
// is the result object; the line before it records the machine. --record
// regenerates reference.json, the recorded outputs every run is checked
// against. See README.md for the metric definitions.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	name, unit string
	value      float64
}

// metricSet keeps metrics in the order they were added.
type metricSet struct{ list []metric }

func (m *metricSet) add(name string, v float64, unit string) {
	m.list = append(m.list, metric{name, unit, v})
}

// outcome is a finished run: the operations it attempted, those that
// failed (an error, a refusal, a wrong output or a known-defect result),
// whether every output matched its reference, and the metrics.
type outcome struct {
	correct   bool
	attempted int
	failed    int
	metrics   metricSet
}

// runEnv is what every workload receives.
type runEnv struct {
	seed    int64
	seconds time.Duration
	workdir string
	ref     *reference
	workers int // at most nproc, and never more than 2
}

type workload struct {
	name   string
	timed  func(env *runEnv) (*outcome, error)
	traced func(env *runEnv) (*outcome, error)
}

var workloads = []workload{
	{campaignSpec.name, campaignSpec.timed, campaignSpec.traced},
	{largeSpec.name, largeSpec.timed, largeSpec.traced},
	{"triage", timedTriage, tracedTriage},
	{"service", timedService, tracedService},
}

func main() {
	name := flag.String("workload", "", "workload: campaign, campaign-large, triage or service")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 15, "measurement time of a timed run")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "scratch directory for checkpoints and service files")
	record := flag.Bool("record", false, "recompute the reference outputs and write them to "+referencePath)
	flag.Parse()

	env := &runEnv{seed: *seed, seconds: time.Duration(*seconds) * time.Second, workers: min(runtime.NumCPU(), 2)}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fail(err)
	}
	if *record {
		if err := recordReference(referencePath, *workdir, env.workers); err != nil {
			fail(err)
		}
		return
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload campaign|campaign-large|triage|service, -seconds >= 1 and -trace 0|1")
		os.Exit(2)
	}
	ref, err := loadReference(referencePath)
	if err != nil {
		fail(err)
	}
	env.ref = ref
	dir, err := os.MkdirTemp(*workdir, "run-*")
	if err != nil {
		fail(err)
	}
	env.workdir = dir
	run := w.timed
	if *trace == 1 {
		run = w.traced
	}
	out, err := run(env)
	if rmErr := os.RemoveAll(dir); rmErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", rmErr)
	}
	if err != nil {
		fail(err)
	}
	printResult(w.name, env, *trace, out)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// printResult writes the machine record and then the result object as
// the last line of standard output.
func printResult(name string, env *runEnv, trace int, out *outcome) {
	meta := map[string]any{
		"workload": name, "seed": env.seed, "seconds": env.seconds.Seconds(), "trace": trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"goversion": runtime.Version(), "cpu_model": cpuModel(), "workers": env.workers,
	}
	mb, _ := json.Marshal(map[string]any{"meta": meta}) // plain values: cannot fail
	fmt.Println(string(mb))

	var b bytes.Buffer
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`, out.correct, out.attempted, out.failed)
	for i, m := range out.metrics.list {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, `%q: {"value": %s, "unit": %q}`, m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
	}
	b.WriteString("}}")
	fmt.Println(b.String())
}

// cpuModel reads the processor name from /proc/cpuinfo.
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

// median returns the middle value (the mean of the two middle values for
// an even count); zero for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean is the geometric mean: every operation weighs the same however
// long it takes, so a run's few slow operations do not dominate it.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// resetPeakRSS restarts the kernel's resident-set high-water mark, so
// peakRSSMB reports the peak of the timed part alone.
func resetPeakRSS() {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: peak RSS not reset:", err)
	}
}

// peakRSSMB reads the resident-set high-water mark (VmHWM) in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// runtimeDelta measures allocations and GC pause time across a traced run.
type runtimeDelta struct{ before runtime.MemStats }

func startRuntimeDelta() *runtimeDelta {
	d := &runtimeDelta{}
	runtime.ReadMemStats(&d.before)
	return d
}

// stop returns allocations per unit of work and the GC pause time since
// the delta started.
func (d *runtimeDelta) stop(units int) (allocsPerUnit, gcPauseMs float64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return ratio(int64(after.Mallocs-d.before.Mallocs), int64(units)), float64(after.PauseTotalNs-d.before.PauseTotalNs) / 1e6
}

// endToEnd adds the end-to-end metrics every timed run reports.
func endToEnd(out *outcome, setups []float64, workPerS, opMsGeomean float64) {
	m := &out.metrics
	m.add("setup_s", median(setups), "s")
	m.add("work_per_s", workPerS, "1/s")
	m.add("op_ms_geomean", opMsGeomean, "ms")
	m.add("peak_rss_mb", peakRSSMB(), "MB")
	m.add("ok_ratio", float64(out.attempted-out.failed)/float64(max(out.attempted, 1)), "ratio")
}

// stratified draws one pool index from each of n equal strata of the
// pool ranked by recorded cost, in a shuffled order: every seed gets
// different inputs with the pool's cost profile, so runs with different
// seeds measure comparable work.
func stratified(costs []float64, n int, seed int64) []int {
	idx := byCost(costs)
	g := len(costs) / n
	rng := rand.New(rand.NewSource(seed))
	pick := make([]int, n)
	for s := range pick {
		pick[s] = idx[s*g+rng.Intn(g)]
	}
	rng.Shuffle(n, func(i, j int) { pick[i], pick[j] = pick[j], pick[i] })
	return pick
}

// medianCost returns the pool index of median recorded cost: the fixed
// warm-up input of set-up.
func medianCost(costs []float64) int {
	idx := byCost(costs)
	return idx[len(idx)/2]
}

// byCost returns the pool indices in ascending cost order.
func byCost(costs []float64) []int {
	idx := make([]int, len(costs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return costs[idx[a]] < costs[idx[b]] })
	return idx
}

// passesFor is how many whole passes of the given length fit the
// measurement time; at least one.
func passesFor(seconds, pass time.Duration) int {
	return max(1, int(math.Round(seconds.Seconds()/pass.Seconds())))
}

// setupRepeats is how often a timed run sets up; setup_s is the median.
const setupRepeats = 3
