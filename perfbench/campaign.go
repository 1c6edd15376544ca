package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dcelens/internal/ast"
	"dcelens/internal/cgen"
	"dcelens/internal/core"
	"dcelens/internal/corpus"
	"dcelens/internal/harness"
	"dcelens/internal/instrument"
	"dcelens/internal/metrics"
	"dcelens/internal/pipeline"
	"dcelens/internal/report"
	"dcelens/internal/span"
)

// campaignKind describes one campaign workload. Its inputs are a pool of
// batches of consecutive generator seeds; the workload seed draws one
// batch from each cost stratum of the pool, and a run makes whole passes
// over the drawn batches, each batch one corpus.Run, the way
// `dce-campaign -n <batch> -seed <base> -metrics deterministic` runs it.
type campaignKind struct {
	name       string
	base       int64 // generator seed of batch 0's first program
	batch      int   // programs per corpus.Run
	pool       int   // batches with a recorded reference
	strata     int   // batches a seed draws: one per cost stratum
	oneWorker  bool  // Workers = 1 instead of nproc
	checkpoint bool  // write a checkpoint file, as -checkpoint does
	gen        func(seed int64) cgen.Config
	replayed   int // batches a traced run replays
}

// campaignSpec is the paper's main loop on the evaluation corpus's
// program size: the scheduler, sequencer and checkpoint I/O all work.
var campaignSpec = &campaignKind{
	name: "campaign", base: 10000, batch: 4, pool: 160, strata: 20, checkpoint: true,
	gen: cgen.DefaultConfig, replayed: 10,
}

// largeSpec moves the cost onto IR size and the superlinear passes; one
// worker leaves the scheduler idle and no checkpoint is written.
var largeSpec = &campaignKind{
	name: "campaign-large", base: 20000, batch: 1, pool: 88, strata: 11, oneWorker: true,
	gen: largeConfig, replayed: 4,
}

// largeConfig is cgen.DefaultConfig with more functions, deeper nesting
// and longer blocks.
func largeConfig(seed int64) cgen.Config {
	c := cgen.DefaultConfig(seed)
	c.Functions = 12
	c.MaxBlockDepth = 4
	c.MaxStmts = 6
	return c
}

// workers is the campaign's worker count on a machine allowing nproc.
func (k *campaignKind) workers(nproc int) int {
	if k.oneWorker {
		return 1
	}
	return nproc
}

// pick is the batches a workload seed selects.
func (k *campaignKind) pick(ref *reference, seed int64) []int {
	return stratified(batchCosts(ref.Batches[k.name]), k.strata, seed)
}

func batchCosts(refs []batchRef) []float64 {
	costs := make([]float64, len(refs))
	for i, r := range refs {
		costs[i] = r.Ms
	}
	return costs
}

func (k *campaignKind) units() int { return k.batch * len(configs()) }

// batchRun is one finished corpus.Run batch.
type batchRun struct {
	c         *corpus.Campaign
	digest    string
	ckptBytes int64
}

// runBatch runs batch b as one campaign with a deterministic metrics
// registry and returns the digest of the report dce-campaign would print.
func (k *campaignKind) runBatch(b, workers int, dir string, spans *span.Recorder) (*batchRun, error) {
	reg := metrics.NewDeterministic()
	opts := corpus.Options{
		Programs: k.batch, BaseSeed: k.base + int64(b*k.batch), GenConfig: k.gen,
		Workers: workers, Metrics: reg, Spans: spans,
	}
	var path string
	if k.checkpoint {
		path = filepath.Join(dir, fmt.Sprintf("checkpoint-%d.json", b))
		opts.Checkpoint = harness.NewCheckpoint(path)
	}
	c, err := corpus.Run(opts)
	if err != nil {
		return nil, fmt.Errorf("%s batch %d: %w", k.name, b, err)
	}
	text := report.Summary(c)
	if len(c.Stats.Failures) == 0 {
		text += "\n" + report.Failures(c.Stats)
	}
	text += "\n" + report.Metrics(reg)
	run := &batchRun{c: c, digest: digest(text)}
	if path != "" {
		st, err := os.Stat(path)
		if err != nil {
			return nil, fmt.Errorf("%s batch %d: checkpoint: %w", k.name, b, err)
		}
		run.ckptBytes = st.Size()
		if err := os.Remove(path); err != nil {
			return nil, err
		}
	}
	return run, nil
}

// check compares a batch against its reference: the report digest, the
// finding count, and no crash, timeout or miscompile.
func (k *campaignKind) check(ref *reference, b int, run *batchRun) (matches, ok bool) {
	want := ref.Batches[k.name][b]
	matches = run.digest == want.Digest && len(run.c.Findings) == want.Findings
	return matches, matches && len(run.c.Stats.Failures) == 0
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// timed makes whole passes over the drawn batches, as many as the
// recorded batch times fit in the measurement time, and reports the
// median pass, so a pass slowed by other load on the machine does not set
// the run's figures. Set-up warms
// the process with the pool's median-cost batch, the same for every seed.
func (k *campaignKind) timed(env *runEnv) (*outcome, error) {
	workers := k.workers(env.workers)
	out := &outcome{correct: true}
	var setups []float64
	warm := medianCost(batchCosts(env.ref.Batches[k.name]))
	for r := 0; r < setupRepeats; r++ {
		start := time.Now()
		run, err := k.runBatch(warm, workers, env.workdir, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if matches, _ := k.check(env.ref, warm, run); !matches {
			out.correct = false
			fmt.Fprintf(os.Stderr, "perfbench: %s warm-up batch %d differs from its reference\n", k.name, warm)
		}
	}

	pick := k.pick(env.ref, env.seed)
	costs := batchCosts(env.ref.Batches[k.name])
	var recorded float64
	for _, b := range pick {
		recorded += costs[b]
	}
	passes := passesFor(env.seconds, time.Duration(recorded*float64(time.Millisecond)))
	resetPeakRSS()
	var rates, geos []float64
	for pass := 0; pass < passes; pass++ {
		var opMs []float64
		var busy time.Duration
		for _, b := range pick {
			t0 := time.Now()
			run, err := k.runBatch(b, workers, env.workdir, nil)
			d := time.Since(t0)
			out.attempted++
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				out.failed++
				continue
			}
			busy += d
			opMs = append(opMs, ms(d))
			matches, ok := k.check(env.ref, b, run)
			if !matches {
				out.correct = false
				fmt.Fprintf(os.Stderr, "perfbench: %s batch %d differs from its reference\n", k.name, b)
			}
			if !ok {
				out.failed++
			}
		}
		if len(opMs) > 0 {
			rates = append(rates, float64(len(opMs)*k.units())/busy.Seconds())
			geos = append(geos, geomean(opMs))
		}
	}
	endToEnd(out, setups, median(rates), median(geos))
	return out, nil
}

// unitKey names one (seed, config) unit.
type unitKey struct {
	seed int64
	cfg  int
}

// unitSets is a unit's missed and primary marker sets.
type unitSets struct{ missed, primary []string }

// traced runs a fixed number of batches three ways: through
// corpus.Run with its span recorder (the scheduler and checkpoint costs,
// and the reference marker sets), then the same seeds replayed layer by
// layer with tracing off and on. The traced replay must reproduce
// corpus.Run's missed and primary sets for every (seed, config).
func (k *campaignKind) traced(env *runEnv) (*outcome, error) {
	batches := k.pick(env.ref, env.seed)[:k.replayed]
	workers := k.workers(env.workers)
	out := &outcome{correct: true}

	var buf bytes.Buffer
	rec := span.New(&buf)
	want := map[unitKey]unitSets{}
	var seeds []int64
	var ckptBytes int64
	cfgs := configs()
	rt := startRuntimeDelta()
	for _, b := range batches {
		run, err := k.runBatch(b, workers, env.workdir, rec)
		if err != nil {
			return nil, err
		}
		out.attempted++
		matches, ok := k.check(env.ref, b, run)
		if !matches {
			out.correct = false
			fmt.Fprintf(os.Stderr, "perfbench: %s batch %d differs from its reference\n", k.name, b)
		}
		if !ok {
			out.failed++
		}
		ckptBytes += run.ckptBytes
		for _, r := range run.c.Programs {
			seeds = append(seeds, r.Seed)
			for i, cfg := range cfgs {
				if an := r.PerCfg[corpus.ConfigKey{Personality: cfg.Personality, Level: cfg.Level}]; an != nil {
					want[unitKey{r.Seed, i}] = unitSets{an.Missed, an.PrimaryMissed}
				}
			}
		}
	}
	allocs, gcPause := rt.stop(len(seeds) * len(cfgs))
	sched, err := schedMetrics(buf.Bytes(), workers)
	if err != nil {
		return nil, err
	}

	t0 := time.Now()
	if _, err := replay(nil, k, seeds, workers, cfgs); err != nil {
		return nil, err
	}
	wallOff := time.Since(t0)
	tr := newTracer()
	t0 = time.Now()
	got, err := replay(tr, k, seeds, workers, cfgs)
	if err != nil {
		return nil, err
	}
	wallOn := time.Since(t0)
	for key, w := range want {
		g, ok := got[key]
		if !ok || !slices.Equal(g.missed, w.missed) || !slices.Equal(g.primary, w.primary) {
			out.correct = false
			fmt.Fprintf(os.Stderr, "perfbench: replay of seed %d config %s differs from corpus.Run\n", key.seed, cfgs[key.cfg].Name())
		}
	}
	if len(got) != len(want) {
		out.correct = false
		fmt.Fprintf(os.Stderr, "perfbench: replay analyzed %d units, corpus.Run %d\n", len(got), len(want))
	}
	x := layerExtras{
		checkpointMs: sched.checkpointMs, checkpointBytes: float64(ckptBytes),
		occupancy: sched.occupancy, queueWaitMs: sched.queueWaitMs, stallMs: sched.stallMs,
		allocsPerUnit: allocs, gcPauseMs: gcPause,
		gapRatio: tr.reconcile(wallOn, workers), overheadRatio: wallOn.Seconds() / wallOff.Seconds(),
	}
	out.correct = out.correct && x.reconciled()
	perLayer(&out.metrics, tr, x)
	return out, nil
}

// replay runs the seeds' programs layer by layer — generate, instrument,
// ground truth, marker CFG, then compile and analyze under every
// configuration — on `workers` goroutines. A nil tracer records nothing.
func replay(tr *tracer, k *campaignKind, seeds []int64, workers int, cfgs []*pipeline.Config) (map[unitKey]unitSets, error) {
	got := make([]map[int]unitSets, len(seeds))
	errs := make([]error, len(seeds))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		t := tr.newTrack()
		wg.Add(1)
		go func() {
			defer wg.Done()
			root := t.begin("replay")
			for {
				i := int(next.Add(1) - 1)
				if i >= len(seeds) {
					break
				}
				got[i], errs[i] = replaySeed(t, tr, k.gen(seeds[i]), cfgs)
			}
			t.end(root)
		}()
	}
	wg.Wait()
	all := map[unitKey]unitSets{}
	for i, m := range got {
		if errs[i] != nil {
			return nil, fmt.Errorf("replay seed %d: %w", seeds[i], errs[i])
		}
		for c, s := range m {
			all[unitKey{seeds[i], c}] = s
		}
	}
	return all, nil
}

func replaySeed(t *track, tr *tracer, gc cgen.Config, cfgs []*pipeline.Config) (map[int]unitSets, error) {
	s := t.begin("cgen")
	prog := cgen.Generate(gc)
	t.end(s)
	if tr != nil {
		tr.add("cgen.nodes", int64(ast.CountNodes(prog)))
	}
	s = t.begin("instrument")
	ins, err := instrument.Instrument(prog, instrument.Options{})
	t.end(s)
	if err != nil {
		return nil, err
	}
	tr.add("instrument.markers", int64(len(ins.Markers)))
	s = t.begin("interp")
	truth, err := core.GroundTruth(ins)
	t.end(s)
	tr.add("interp.calls", 1)
	if err != nil {
		return nil, err
	}
	s = t.begin("core.markercfg")
	g, err := core.BuildMarkerCFG(ins)
	t.end(s)
	if err != nil {
		return nil, err
	}
	sets := map[int]unitSets{}
	for i, cfg := range cfgs {
		comp, err := compileTraced(t, tr, ins, cfg)
		if err != nil {
			return nil, err
		}
		s = t.begin("core.analyze")
		missed := comp.Missed(truth)
		primary := g.Primary(truth, missed)
		t.end(s)
		sets[i] = unitSets{missed, primary}
	}
	return sets, nil
}

// schedStats is what the campaign's own span recorder says about the
// scheduler and checkpoint writes.
type schedStats struct {
	occupancy, queueWaitMs, stallMs, checkpointMs float64
}

func schedMetrics(trace []byte, workers int) (*schedStats, error) {
	t, err := span.Parse(trace)
	if err != nil {
		return nil, err
	}
	p := span.Analyze(t, 0)
	s := &schedStats{
		queueWaitMs: float64(p.QueueWait.TotalUs) / 1e3,
		stallMs:     float64(p.SeqStall.TotalUs) / 1e3,
	}
	var busy int64
	for _, w := range p.Workers {
		busy += w.BusyUs
	}
	if p.WallUs > 0 {
		s.occupancy = float64(busy) / float64(p.WallUs*int64(workers))
	}
	for _, e := range t.Events {
		if e.Cat == span.CatCheckpoint {
			s.checkpointMs += float64(e.Dur) / 1e3
		}
	}
	return s, nil
}
