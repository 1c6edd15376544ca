package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"dcelens/internal/ast"
	"dcelens/internal/bisect"
	"dcelens/internal/core"
	"dcelens/internal/corpus"
	"dcelens/internal/instrument"
	"dcelens/internal/interp"
	"dcelens/internal/pipeline"
	"dcelens/internal/reduce"
)

// The triage workload turns findings into reduced, bisected reports. Its
// set-up is a discovery campaign over a fixed seed range; the timed part
// reduces every primary finding with Campaign.ReduceFinding and bisects
// every level regression with bisect.Regression, in an order drawn from
// the workload seed.
const (
	triageBase     = 100
	triagePrograms = 20
	// triageMaxChecks caps each reduction so one pass over the findings
	// fits a run; at the default cap of 4,000 one reduction alone takes
	// 15 s on a 2-CPU machine.
	triageMaxChecks = 1000
)

var reductionOptions = reduce.Options{MaxChecks: triageMaxChecks}

// triageOp is one reduction or one bisection of a finding.
type triageOp struct {
	f      corpus.Finding
	reduce bool // otherwise bisect
	ref    int  // index into the reference's Reductions or Bisections
}

// discover runs the discovery campaign and lists its triage operations in
// reference order: reductions of primary findings, then bisections of
// level regressions.
func discover(workers int) (*corpus.Campaign, []triageOp, error) {
	c, err := corpus.Run(corpus.Options{Programs: triagePrograms, BaseSeed: triageBase, Workers: workers})
	if err != nil {
		return nil, nil, fmt.Errorf("triage discovery: %w", err)
	}
	var ops []triageOp
	n := 0
	for _, f := range c.Findings {
		if f.Primary {
			ops = append(ops, triageOp{f: f, reduce: true, ref: n})
			n++
		}
	}
	n = 0
	for _, f := range c.Findings {
		if f.Kind == corpus.KindLevelDiff {
			ops = append(ops, triageOp{f: f, ref: n})
			n++
		}
	}
	return c, ops, nil
}

func findingID(f corpus.Finding) string {
	return fmt.Sprintf("%d/%s/%s/%s %s", f.Seed, f.Marker, f.Kind, f.Personality, f.Level)
}

// checkOps verifies that discovery produced the findings the reference
// was recorded for.
func checkOps(ref *triageRef, ops []triageOp) error {
	var r, b int
	for _, op := range ops {
		id := findingID(op.f)
		if op.reduce {
			if r >= len(ref.Reductions) || ref.Reductions[r].Finding != id {
				return fmt.Errorf("triage: reduction %d is %s, not the recorded finding", r, id)
			}
			r++
		} else {
			if b >= len(ref.Bisections) || ref.Bisections[b].Finding != id {
				return fmt.Errorf("triage: bisection %d is %s, not the recorded finding", b, id)
			}
			b++
		}
	}
	if r != len(ref.Reductions) || b != len(ref.Bisections) {
		return fmt.Errorf("triage: discovery found %d reductions and %d bisections, reference has %d and %d",
			r, b, len(ref.Reductions), len(ref.Bisections))
	}
	return nil
}

// reduceOnce runs Campaign.ReduceFinding and checks the case against the
// reference. A reduction that returns its input unchanged fails: that is
// the level-diff defect of always reducing against -O1.
func reduceOnce(c *corpus.Campaign, op triageOp, want *reductionRef) (matches, ok bool) {
	rc, err := c.ReduceFinding(op.f, reductionOptions)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: reduce:", err)
		return false, false
	}
	matches = rc.Hash == want.Hash && digest(rc.Source) == want.Source && rc.Nodes == want.Nodes
	unchanged := rc.Nodes == ast.CountNodes(c.Result(op.f.Seed).Ins.Prog)
	return matches, matches && !unchanged
}

// bisectCommit runs bisect.Regression and returns the first bad commit
// index; -1 is a long-standing miss, which bisect reports as an error.
func bisectCommit(c *corpus.Campaign, f corpus.Finding) int {
	out, err := bisect.Regression(c.Result(f.Seed).Ins, f.Personality, f.Level, f.Marker)
	if err != nil {
		return -1
	}
	return out.CommitIndex
}

// setupTriage runs the discovery campaign, checks its findings against
// the reference and orders the operations by the workload seed.
func setupTriage(env *runEnv) (*corpus.Campaign, []triageOp, error) {
	c, ops, err := discover(env.workers)
	if err != nil {
		return nil, nil, err
	}
	if err := checkOps(&env.ref.Triage, ops); err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(env.seed))
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return c, ops, nil
}

func timedTriage(env *runEnv) (*outcome, error) {
	out := &outcome{correct: true}
	var setups []float64
	var c *corpus.Campaign
	var ops []triageOp
	for r := 0; r < setupRepeats; r++ {
		start := time.Now()
		var err error
		c, ops, err = setupTriage(env)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	// Whole passes over the operations, as many as fit the measurement
	// time judged by the first pass, so every run weighs each finding
	// equally.
	resetPeakRSS()
	var opMs []float64
	var reduceTime time.Duration
	var checks int
	start := time.Now()
	for pass, passes := 0, 1; pass < passes; pass++ {
		for _, op := range ops {
			out.attempted++
			t0 := time.Now()
			var matches, ok bool
			if op.reduce {
				want := &env.ref.Triage.Reductions[op.ref]
				matches, ok = reduceOnce(c, op, want)
				reduceTime += time.Since(t0)
				checks += want.Checks
			} else {
				matches = bisectCommit(c, op.f) == env.ref.Triage.Bisections[op.ref].Commit
				ok = matches
			}
			opMs = append(opMs, ms(time.Since(t0)))
			if !matches {
				out.correct = false
				fmt.Fprintf(os.Stderr, "perfbench: triage of %s differs from its reference\n", findingID(op.f))
			}
			if !ok {
				out.failed++
			}
		}
		if pass == 0 {
			passes = passesFor(env.seconds, time.Since(start))
		}
	}
	endToEnd(out, setups, float64(checks)/reduceTime.Seconds(), geomean(opMs))
	return out, nil
}

// tracedTriage makes one pass over the operations with the reductions'
// interestingness test and the bisection search driven layer by layer,
// and checks every result, check count and compile count against the
// reference recorded from Campaign.ReduceFinding and bisect.Regression.
func tracedTriage(env *runEnv) (*outcome, error) {
	c, ops, err := setupTriage(env)
	if err != nil {
		return nil, err
	}
	out := &outcome{correct: true}
	tr := newTracer()
	t := tr.newTrack()
	var x layerExtras
	var accepted, compiles int
	var bisectMs []float64
	var reduceTime time.Duration
	rt := startRuntimeDelta()
	start := time.Now()
	root := t.begin("triage")
	for _, op := range ops {
		out.attempted++
		var matches, ok bool
		if op.reduce {
			want := &env.ref.Triage.Reductions[op.ref]
			t0 := time.Now()
			res := reduceTraced(t, tr, c, op.f)
			reduceTime += time.Since(t0)
			x.reduceChecks += float64(res.Checks)
			accepted += res.accepted
			if res.Checks >= triageMaxChecks {
				x.capped++
			}
			matches = digest(ast.Print(res.Program)) == want.Source && res.Checks == want.Checks &&
				res.accepted == want.Accepted && res.NodesAfter == want.Nodes
			ok = matches && res.NodesAfter != res.NodesBefore
		} else {
			want := &env.ref.Triage.Bisections[op.ref]
			t0 := time.Now()
			commit, n := regressionTraced(t, tr, c.Result(op.f.Seed).Ins, op.f.Personality, op.f.Level, op.f.Marker)
			bisectMs = append(bisectMs, ms(time.Since(t0)))
			compiles += n
			matches = commit == want.Commit && n == want.Compiles
			ok = matches
		}
		if !matches {
			out.correct = false
			fmt.Fprintf(os.Stderr, "perfbench: traced triage of %s differs from its reference\n", findingID(op.f))
		}
		if !ok {
			out.failed++
		}
	}
	t.end(root)
	wall := time.Since(start)
	x.allocsPerUnit, x.gcPauseMs = rt.stop(int(x.reduceChecks) + compiles)
	x.reduceMsPerCheck = ms(reduceTime) / x.reduceChecks
	x.reduceAccept = float64(accepted) / x.reduceChecks
	x.bisectCompiles = float64(compiles)
	x.bisectMs = median(bisectMs)
	x.gapRatio = tr.reconcile(wall, 1)
	// The untraced pass is the timed workload's own: the same operations
	// through Campaign.ReduceFinding and bisect.Regression.
	start = time.Now()
	for _, op := range ops {
		if op.reduce {
			reduceOnce(c, op, &env.ref.Triage.Reductions[op.ref])
		} else {
			bisectCommit(c, op.f)
		}
	}
	x.overheadRatio = wall.Seconds() / time.Since(start).Seconds()
	out.correct = out.correct && x.reconciled()
	perLayer(&out.metrics, tr, x)
	return out, nil
}

// tracedResult is a reduction with the interestingness test's verdicts.
type tracedResult struct {
	*reduce.Result
	accepted int
}

// reduceTraced is Campaign.ReduceFinding with its interestingness test
// rebuilt from the layers corpus.InterestingnessFor calls, so the test's
// interpreter runs and compiles show up as spans. The reference
// configuration follows ReduceFinding: the other personality at -O3 for
// a compiler-diff finding, the same personality at -O1 for a level-diff
// one.
func reduceTraced(t *track, tr *tracer, c *corpus.Campaign, f corpus.Finding) *tracedResult {
	target := pipeline.New(f.Personality, f.Level)
	var reference *pipeline.Config
	if f.Kind == corpus.KindCompilerDiff {
		other := pipeline.GCC
		if f.Personality == pipeline.GCC {
			other = pipeline.LLVM
		}
		reference = pipeline.New(other, pipeline.O3)
	} else {
		reference = pipeline.New(f.Personality, pipeline.O1)
	}
	res := &tracedResult{}
	test := func(p *ast.Program) bool {
		s := t.begin("reduce.check")
		ok := interesting(t, tr, p, f.Marker, target, reference)
		t.end(s)
		if ok {
			res.accepted++
		}
		return ok
	}
	s := t.begin("reduce")
	res.Result = reduce.Reduce(c.Result(f.Seed).Ins.Prog, test, reductionOptions)
	t.end(s)
	return res
}

// interesting is corpus.InterestingnessFor step by step: the candidate
// must run, still declare the marker, keep it dead in ground truth, and
// the target must keep it while the reference eliminates it.
func interesting(t *track, tr *tracer, p *ast.Program, marker string, target, reference *pipeline.Config) bool {
	ins := &instrument.Program{Prog: p}
	found := false
	for _, f := range p.Funcs() {
		if f.Body == nil && instrument.IsMarker(f.Name) {
			ins.Markers = append(ins.Markers, instrument.Marker{ID: len(ins.Markers), Name: f.Name})
			found = found || f.Name == marker
		}
	}
	s := t.begin("interp")
	_, err := interp.Run(p, interp.Options{})
	t.end(s)
	tr.add("interp.calls", 1)
	if err != nil || !found {
		return false
	}
	s = t.begin("interp")
	truth, err := core.GroundTruth(ins)
	t.end(s)
	tr.add("interp.calls", 1)
	if err != nil || truth.Alive[marker] {
		return false
	}
	tc, err := compileTraced(t, tr, ins, target)
	if err != nil || !tc.Alive[marker] {
		return false
	}
	rc, err := compileTraced(t, tr, ins, reference)
	return err == nil && !rc.Alive[marker]
}

// regressionTraced is bisect.Regression's search with every version's
// compile driven layer by layer. It returns the first bad commit index
// (-1 for a long-standing miss) and the number of compiles.
func regressionTraced(t *track, tr *tracer, ins *instrument.Program, p pipeline.Personality, lvl pipeline.Level, marker string) (commit, compiles int) {
	s := t.begin("bisect")
	defer t.end(s)
	// missed compiles the version with the first k history commits; ok is
	// false when the compile fails.
	missed := func(k int) (miss, ok bool) {
		compiles++
		comp, err := compileTraced(t, tr, ins, pipeline.AtCommit(p, lvl, k))
		return err == nil && comp.Alive[marker], err == nil
	}
	n := len(pipeline.History(p))
	if miss, ok := missed(n); !ok || !miss {
		return -1, compiles
	}
	good := -1
	for k := n - 1; k >= 0 && good < 0; k-- {
		miss, ok := missed(k)
		if !ok {
			return -1, compiles
		}
		if !miss {
			good = k
		}
	}
	if good < 0 {
		return -1, compiles
	}
	lo, hi := good, n
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		miss, ok := missed(mid)
		if !ok {
			return -1, compiles
		}
		if miss {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, compiles
}
