package main

import (
	"maps"
	"strings"
	"testing"
	"time"

	"dcelens/internal/corpus"
	"dcelens/internal/ir"
	"dcelens/internal/opt"
	"dcelens/internal/pipeline"
)

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	tk := tr.newTrack()
	root := tk.begin("root")
	outer := tk.begin("outer")
	tk.leaf("opt.pass.dce", 3*time.Millisecond)
	tk.leaf("opt.pass.gvn", 2*time.Millisecond)
	tk.end(outer)
	tk.end(root)
	tk.spans[outer].dur = 10 * time.Millisecond
	tk.spans[root].dur = 12 * time.Millisecond

	incl, self := tr.selfTimes()
	if self["outer"] != 5*time.Millisecond || incl["outer"] != 10*time.Millisecond {
		t.Errorf("outer: self %v incl %v, want 5ms and 10ms", self["outer"], incl["outer"])
	}
	if _, ok := self["root"]; ok {
		t.Errorf("a track root must not count as a layer")
	}
	if gap := tr.reconcile(12*time.Millisecond, 1); gap < 0.166 || gap > 0.167 {
		t.Errorf("gap = %v, want 2/12", gap)
	}
}

func TestPassObserverChecksSchedule(t *testing.T) {
	cfg := pipeline.New(pipeline.GCC, pipeline.O1)
	sched := cfg.Schedule()
	tr := newTracer()
	tk := tr.newTrack()
	tk.begin("opt")
	o := &passObserver{t: tk, tr: tr, schedule: sched}
	for i, p := range sched {
		o.AfterPass(&ir.Module{}, p, i, 0, opt.PassStats{})
	}
	if err := o.finish(cfg.Iterations()); err != nil {
		t.Fatalf("one whole iteration: %v", err)
	}
	o.AfterPass(&ir.Module{}, sched[1], 1, 1, opt.PassStats{})
	if err := o.finish(cfg.Iterations()); err == nil {
		t.Fatalf("an instance out of schedule order was accepted")
	}
	bad := &passObserver{t: tk, tr: tr, schedule: []string{"escape"}}
	bad.AfterPass(&ir.Module{}, "escape", 0, 0, opt.PassStats{})
	if err := bad.finish(1); err == nil || !strings.Contains(err.Error(), "not one of") {
		t.Fatalf("an unknown pass name was accepted: %v", err)
	}
}

// TestTracedCountsRepeat replays the same seeds twice, once on two
// workers, and requires every count — pass instances, changed counts, IR
// sizes before and after the optimizer — to repeat exactly.
func TestTracedCountsRepeat(t *testing.T) {
	seeds := []int64{campaignSpec.base, campaignSpec.base + 1}
	cfgs := configs()
	counts := func(workers int) map[string]int64 {
		tr := newTracer()
		if _, err := replay(tr, campaignSpec, seeds, workers, cfgs); err != nil {
			t.Fatal(err)
		}
		return tr.counts
	}
	a, b := counts(1), counts(2)
	if !maps.Equal(a, b) {
		t.Fatalf("counts differ between two replays:\n%v\n%v", a, b)
	}
	for _, name := range []string{"lower.ir_instrs", "opt.ir_instrs_out", "opt.pass.gvn.instances", "opt.pass.gvn.changed"} {
		if a[name] == 0 {
			t.Errorf("%s is zero", name)
		}
	}
}

// TestTriageCountsRepeat reduces and bisects the same level-diff finding
// twice through the traced paths and against the program's own
// Campaign.ReduceFinding and bisect.Regression.
func TestTriageCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a discovery campaign")
	}
	c, ops, err := discover(2)
	if err != nil {
		t.Fatal(err)
	}
	var f *corpus.Finding
	for i := range ops {
		if id := findingID(ops[i].f); !ops[i].reduce && strings.HasPrefix(id, "113/DCEMarker23/") {
			f = &ops[i].f
		}
	}
	if f == nil {
		t.Fatal("finding 113/DCEMarker23 level-diff not discovered")
	}
	r1, r2 := reduceTraced(nil, newTracer(), c, *f), reduceTraced(nil, nil, c, *f)
	if r1.Checks != r2.Checks || r1.accepted != r2.accepted || r1.NodesAfter != r2.NodesAfter {
		t.Errorf("reduce: checks %d/%d accepted %d/%d nodes %d/%d",
			r1.Checks, r2.Checks, r1.accepted, r2.accepted, r1.NodesAfter, r2.NodesAfter)
	}
	rc, err := c.ReduceFinding(*f, reductionOptions)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Nodes != r1.NodesAfter {
		t.Errorf("ReduceFinding reduced to %d nodes, the traced reduction to %d", rc.Nodes, r1.NodesAfter)
	}
	ins := c.Result(f.Seed).Ins
	c1, n1 := regressionTraced(nil, nil, ins, f.Personality, f.Level, f.Marker)
	c2, n2 := regressionTraced(nil, nil, ins, f.Personality, f.Level, f.Marker)
	if c1 != c2 || n1 != n2 || c1 != bisectCommit(c, *f) {
		t.Errorf("bisect: commits %d/%d (bisect.Regression %d), compiles %d/%d", c1, c2, bisectCommit(c, *f), n1, n2)
	}
}
