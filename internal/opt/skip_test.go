package opt_test

import (
	"fmt"
	"reflect"
	"testing"

	"dcelens/internal/asm"
	"dcelens/internal/cgen"
	"dcelens/internal/instrument"
	"dcelens/internal/ir"
	"dcelens/internal/lower"
	"dcelens/internal/opt"
	"dcelens/internal/parser"
	"dcelens/internal/pipeline"
	"dcelens/internal/remark"
	"dcelens/internal/sema"
	"dcelens/internal/types"
)

// honestyObserver records every instance's changed flag and checks that
// the pass manager can see every mutation: after each executed instance it
// fingerprints the function bodies and fails when one changed although the
// instance reported no change and no function's Gen moved — a mutation
// that would let a later instance be skipped unsoundly.
type honestyObserver struct {
	t       *testing.T
	label   string
	changed []bool
	types   map[*types.Type]uint64
	fp      uint64
	gens    uint64
}

func (h *honestyObserver) BeginPipeline(m *ir.Module) {
	h.types = map[*types.Type]uint64{}
	h.fp, h.gens = h.fingerprint(m)
}

func (h *honestyObserver) AfterPass(m *ir.Module, pass string, idx, iter int, st opt.PassStats) {
	h.changed = append(h.changed, st.Changed)
	if st.FuncsVisited == 0 {
		return // skipped: nothing ran
	}
	fp, gens := h.fingerprint(m)
	if !st.Changed && gens == h.gens && fp != h.fp {
		h.t.Errorf("%s: %s@%d (iteration %d) changed the IR without reporting it or calling MarkMutated",
			h.label, pass, idx, iter)
	}
	h.fp, h.gens = fp, gens
}

// fingerprint hashes every defined function's body — blocks, edges and
// every instruction field — and totals the functions' generations. It is
// the IR text without the formatting cost, which would dominate the test.
func (h *honestyObserver) fingerprint(m *ir.Module) (fp, gens uint64) {
	fp = 14695981039346656037
	mix := func(v uint64) { fp = (fp ^ v) * 1099511628211 }
	str := func(s string) {
		for i := 0; i < len(s); i++ {
			mix(uint64(s[i]))
		}
		mix(uint64(len(s)))
	}
	for _, f := range m.Funcs {
		if f.External {
			continue
		}
		gens += f.Gen()
		str(f.Name)
		for _, b := range f.Blocks {
			mix(uint64(b.ID))
			for _, p := range b.Preds {
				mix(uint64(p.ID))
			}
			for _, in := range b.Instrs {
				mix(uint64(in.Op))
				mix(uint64(in.ID))
				if in.Typ != nil {
					id, ok := h.types[in.Typ]
					if !ok {
						id = uint64(len(h.types)) + 1
						h.types[in.Typ] = id
					}
					mix(id)
				}
				for _, a := range in.Args {
					mix(uint64(a.ID))
				}
				mix(uint64(in.IntVal))
				if in.Global != nil {
					str(in.Global.Name)
				}
				if in.Callee != nil {
					str(in.Callee.Name)
				}
				mix(uint64(in.ParamIdx))
				mix(uint64(in.Count))
				mix(uint64(in.BinOp))
				for _, t := range in.Targets {
					mix(uint64(t.ID))
				}
				for _, p := range in.PhiPreds {
					mix(uint64(p.ID))
				}
				if in.Widened {
					mix(1)
				}
			}
		}
	}
	return fp, gens
}

// compileRun is one pipeline run's observable result.
type compileRun struct {
	asm     string
	changed []bool
	remarks *remark.Profile
}

func compileOnce(t *testing.T, label string, prog *instrument.Program, o opt.Options, cfg *pipeline.Config) compileRun {
	t.Helper()
	m, err := lower.Lower(prog.Prog)
	if err != nil {
		t.Fatal(err)
	}
	h := &honestyObserver{t: t, label: label}
	rc := remark.NewCollector(instrument.IsMarker)
	if err := opt.ObservedPipeline(m, o, cfg.Passes(), cfg.Iterations(), opt.Observers(h, rc)); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return compileRun{asm: asm.Emit(m), changed: h.changed, remarks: rc.Profile()}
}

// equivalenceProgram and equivalenceConfig are the inputs of the
// equivalence suites below, which compare the pipeline's shortcuts against
// its plain path.
type equivalenceProgram struct {
	name string
	prog *instrument.Program
}

type equivalenceConfig struct {
	name string
	cfg  *pipeline.Config
	o    opt.Options
}

// equivalenceInputs returns the programs (DefaultConfig, SmallConfig and
// campaign-large-shaped) and configs (all ten, plus a pessimistic-escape
// ablation and a mid-history commit) the equivalence suites compile.
func equivalenceInputs(t *testing.T) ([]equivalenceProgram, []equivalenceConfig) {
	t.Helper()
	type gen struct {
		name string
		cfg  cgen.Config
	}
	var gens []gen
	defaults, smalls := []int64{1, 2, 3, 4}, []int64{5, 6, 7, 8}
	if testing.Short() {
		defaults, smalls = defaults[:2], smalls[:2]
	}
	for _, s := range defaults {
		gens = append(gens, gen{fmt.Sprintf("default-%d", s), cgen.DefaultConfig(s)})
	}
	for _, s := range smalls {
		gens = append(gens, gen{fmt.Sprintf("small-%d", s), cgen.SmallConfig(s)})
	}
	for _, s := range []int64{41, 42} {
		// Shaped like the benchmark's campaign-large programs.
		c := cgen.DefaultConfig(s)
		c.Functions, c.MaxBlockDepth, c.MaxStmts = 12, 4, 6
		gens = append(gens, gen{fmt.Sprintf("large-%d", s), c})
	}
	var programs []equivalenceProgram
	for _, g := range gens {
		prog, err := instrument.Instrument(cgen.Generate(g.cfg), instrument.Options{})
		if err != nil {
			t.Fatal(err)
		}
		programs = append(programs, equivalenceProgram{g.name, prog})
	}

	var configs []equivalenceConfig
	for _, p := range []pipeline.Personality{pipeline.GCC, pipeline.LLVM} {
		for _, lvl := range pipeline.Levels {
			c := pipeline.New(p, lvl)
			configs = append(configs, equivalenceConfig{c.Name(), c, c.Options()})
		}
	}
	pess := pipeline.New(pipeline.LLVM, pipeline.O3)
	o := pess.Options()
	o.PessimisticEscape = true
	configs = append(configs, equivalenceConfig{pess.Name() + " pessimistic-escape", pess, o})
	mid := pipeline.AtCommit(pipeline.GCC, pipeline.O3, len(pipeline.History(pipeline.GCC))/2)
	configs = append(configs, equivalenceConfig{mid.Name(), mid, mid.Options()})
	return programs, configs
}

// sameRun reports every way got differs from want: assembly, per-instance
// changed flags, remark profiles.
func sameRun(t *testing.T, label, what string, got, want compileRun) {
	t.Helper()
	if got.asm != want.asm {
		t.Errorf("%s: assembly differs %s", label, what)
	}
	if !reflect.DeepEqual(got.changed, want.changed) {
		t.Errorf("%s: per-instance changed flags differ %s:\n got  %v\n want %v", label, what, got.changed, want.changed)
	}
	if !reflect.DeepEqual(got.remarks, want.remarks) {
		t.Errorf("%s: remark profiles differ %s", label, what)
	}
}

// TestSkipEquivalence is the permanent check of the pass manager's
// instance skipping: compiling with skipping on and off must produce
// byte-identical assembly, the identical sequence of per-instance changed
// flags, and identical remark profiles. Both runs also check that every
// mutation is visible to the skip rule (honestyObserver).
func TestSkipEquivalence(t *testing.T) {
	programs, configs := equivalenceInputs(t)
	for _, p := range programs {
		for _, c := range configs {
			label := p.name + " " + c.name
			on := compileOnce(t, label+" (skipping)", p.prog, c.o, c.cfg)
			restore := opt.SetSkipping(false)
			off := compileOnce(t, label+" (no skipping)", p.prog, c.o, c.cfg)
			restore()
			sameRun(t, label, "with skipping on", on, off)
		}
	}
}

// TestScratchEquivalence is the permanent check of the pipeline-owned pass
// scratch: compiling with one scratch shared by every pass call, and with
// that scratch poisoning each hand-out, must produce byte-identical
// assembly, changed flags and remark profiles to fresh tables per pass
// call. Poisoning fills every handed-out backing array with junk before it
// zeroes the part handed out, so a pass that reads an entry it never wrote,
// or keeps using a table after it was handed out again, diverges (or
// crashes on a junk pointer's negative ID) instead of passing by luck.
func TestScratchEquivalence(t *testing.T) {
	programs, configs := equivalenceInputs(t)
	for _, p := range programs {
		for _, c := range configs {
			label := p.name + " " + c.name
			shared := compileOnce(t, label+" (shared scratch)", p.prog, c.o, c.cfg)
			restore := opt.SetScratch(opt.ScratchPoisoned)
			poisoned := compileOnce(t, label+" (poisoned scratch)", p.prog, c.o, c.cfg)
			restore()
			restore = opt.SetScratch(opt.ScratchFresh)
			fresh := compileOnce(t, label+" (fresh scratch)", p.prog, c.o, c.cfg)
			restore()
			sameRun(t, label, "with a shared scratch", shared, fresh)
			sameRun(t, label, "with a poisoned scratch", poisoned, fresh)
		}
	}
}

// statsObserver records every instance's stats in schedule order.
type statsObserver struct{ stats []opt.PassStats }

func (s *statsObserver) BeginPipeline(*ir.Module) {}

func (s *statsObserver) AfterPass(_ *ir.Module, _ string, _, _ int, st opt.PassStats) {
	s.stats = append(s.stats, st)
}

func skipModule(t *testing.T) *ir.Module {
	t.Helper()
	prog, err := parser.Parse(`
static int g;
static int f(int x) { return x + 1; }
int main(void) { g = f(2); return g; }
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := sema.Check(prog); err != nil {
		t.Fatal(err)
	}
	m, err := lower.Lower(prog)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSkipRule pins the pass manager's skip rule with synthetic passes:
// an instance is skipped exactly when the module has not changed since
// the same pass's previous instance started.
func TestSkipRule(t *testing.T) {
	noop := opt.Pass{Name: "noop", Fn: func(*ir.Func, opt.Options) bool { return false }}
	const defined = 2 // f and main

	run := func(t *testing.T, passes []opt.Pass, iters int) []opt.PassStats {
		t.Helper()
		obs := &statsObserver{}
		if err := opt.ObservedPipeline(skipModule(t), opt.Options{}, passes, iters, obs); err != nil {
			t.Fatal(err)
		}
		return obs.stats
	}
	ran := func(st opt.PassStats) bool {
		return st.FuncsVisited == defined && st.FuncsSkipped == 0
	}
	skipped := func(st opt.PassStats) bool {
		return st.FuncsVisited == 0 && st.FuncsSkipped == defined && !st.Changed
	}

	t.Run("unchanged inputs", func(t *testing.T) {
		st := run(t, []opt.Pass{noop, noop}, 1)
		if !ran(st[0]) || !skipped(st[1]) {
			t.Fatalf("stats %+v: want the first noop to run and the second to be skipped", st)
		}
	})

	t.Run("MarkMutated only", func(t *testing.T) {
		silent := opt.Pass{Name: "silent", Fn: func(f *ir.Func, _ opt.Options) bool {
			f.MarkMutated()
			return false
		}}
		st := run(t, []opt.Pass{noop, silent, noop}, 1)
		if !ran(st[1]) || st[1].Changed || !ran(st[2]) {
			t.Fatalf("stats %+v: an unreported mutation must make the next noop run", st)
		}
	})

	t.Run("changed pass runs again", func(t *testing.T) {
		// One transform per invocation, like unroll and unswitch: the
		// pass reports a change on its first two instances.
		n := 0
		step := opt.Pass{Name: "step", Run: func(*ir.Module, opt.Options) bool {
			n++
			return n <= 2
		}}
		st := run(t, []opt.Pass{step, noop}, 4)
		if len(st) != 6 {
			t.Fatalf("got %d instances, want 3 iterations of 2", len(st))
		}
		for i, want := range []bool{true, true, true, true, true, false} {
			if ran(st[i]) != want {
				t.Fatalf("instance %d: stats %+v, want ran=%v", i, st[i], want)
			}
		}
		if !skipped(st[5]) || n != 3 {
			t.Fatalf("stats %+v, %d step runs: want the last noop skipped and step run 3 times", st, n)
		}
	})

	t.Run("skipping off", func(t *testing.T) {
		defer opt.SetSkipping(false)()
		for i, st := range run(t, []opt.Pass{noop, noop}, 1) {
			if !ran(st) {
				t.Fatalf("instance %d: stats %+v, want every instance to run", i, st)
			}
		}
	})
}
