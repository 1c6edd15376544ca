// Integration tests for the internal/trace subsystem: provenance coverage
// on a campaign (the paper-scale acceptance bar), byte-level determinism of
// every trace rendering, and the cross-validation of trace attribution
// against history bisection (the Tables 3/4 ground truth).
package dcelens

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dcelens/internal/bisect"
	"dcelens/internal/corpus"
	"dcelens/internal/ir"
	"dcelens/internal/metrics"
	"dcelens/internal/opt"
	"dcelens/internal/pipeline"
	"dcelens/internal/report"
	"dcelens/internal/trace"
)

var (
	traceCampOnce sync.Once
	traceCamp     *corpus.Campaign
	traceCampErr  error
)

// tracedCampaign lazily runs the shared 20-program traced campaign.
func tracedCampaign(t *testing.T) *corpus.Campaign {
	t.Helper()
	traceCampOnce.Do(func() {
		traceCamp, traceCampErr = corpus.Run(corpus.Options{
			Programs: 20,
			BaseSeed: 1,
			Trace:    true,
		})
	})
	if traceCampErr != nil {
		t.Fatal(traceCampErr)
	}
	if len(traceCamp.Stats.Errors) > 0 {
		t.Fatalf("campaign errors: %v", traceCamp.Stats.Errors)
	}
	return traceCamp
}

// TestTraceAttributionRate pins the subsystem's acceptance bar: on a
// 20-program campaign, every eliminated dead marker is attributed, and at
// least 95% are attributed to a concrete pipeline pass instance (the rest
// belong to the frontend pseudo pass).
func TestTraceAttributionRate(t *testing.T) {
	c := tracedCampaign(t)
	for _, p := range []pipeline.Personality{pipeline.GCC, pipeline.LLVM} {
		eliminated, attributed, pipelineAttributed := 0, 0, 0
		for _, r := range c.Programs {
			an := r.PerCfg[corpus.ConfigKey{Personality: p, Level: pipeline.O3}]
			if an.Compilation.Trace == nil {
				t.Fatalf("%s seed %d: campaign ran with Trace but Compilation.Trace is nil", p, r.Seed)
			}
			prov := an.Compilation.Trace.Provenance()
			for _, m := range an.Compilation.Eliminated(r.Truth) {
				eliminated++
				ref, ok := prov.KillerOf(m)
				if !ok {
					t.Errorf("%s seed %d: eliminated dead marker %s has no provenance", p, r.Seed, m)
					continue
				}
				attributed++
				if !ref.IsFrontend() {
					pipelineAttributed++
				}
			}
		}
		if eliminated == 0 {
			t.Fatalf("%s: campaign eliminated no dead markers", p)
		}
		if attributed != eliminated {
			t.Errorf("%s: %d of %d eliminated dead markers attributed, want all", p, attributed, eliminated)
		}
		rate := float64(pipelineAttributed) / float64(eliminated)
		if rate < 0.95 {
			t.Errorf("%s: %.1f%% of eliminations attributed to a concrete pass instance, want >= 95%%",
				p, 100*rate)
		}
		t.Logf("%s -O3: %d eliminated, %d attributed (%.1f%% to pipeline passes)",
			p, eliminated, attributed, 100*float64(pipelineAttributed)/float64(eliminated))
	}
}

// TestTraceDeterminism: two runs of the same seed produce byte-identical
// provenance tables, structural pass profiles, and campaign-wide
// attribution tables (all iteration is slice-ordered, never over maps).
func TestTraceDeterminism(t *testing.T) {
	run := func() (*corpus.Campaign, string) {
		c, err := corpus.Run(corpus.Options{Programs: 6, BaseSeed: 101, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(c.Stats.Errors) > 0 {
			t.Fatalf("campaign errors: %v", c.Stats.Errors)
		}
		var sb strings.Builder
		for _, p := range []pipeline.Personality{pipeline.GCC, pipeline.LLVM} {
			rows := c.EliminationsPerPass(corpus.ConfigKey{Personality: p, Level: pipeline.O3})
			sb.WriteString(report.AttributionTable(string(p), rows))
			for _, r := range c.Programs {
				an := r.PerCfg[corpus.ConfigKey{Personality: p, Level: pipeline.O3}]
				sb.WriteString(report.ProvenanceTable(an.Compilation.Trace.Provenance()))
				sb.WriteString(report.PassProfileTable(an.Compilation.Trace, false))
			}
		}
		return c, sb.String()
	}
	c1, out1 := run()
	c2, out2 := run()
	if out1 != out2 {
		t.Fatalf("trace output differs between identical runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", out1, out2)
	}
	// Finding attribution is deterministic too.
	for i, f := range c1.Findings {
		a1, err1 := c1.AttributeFinding(f)
		a2, err2 := c2.AttributeFinding(c2.Findings[i])
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("finding %d: attribution errors differ: %v vs %v", i, err1, err2)
		}
		if err1 == nil && *a1 != *a2 {
			t.Fatalf("finding %d: attribution differs: %+v vs %+v", i, a1, a2)
		}
	}
}

// TestTraceCrossValidatesBisection ties the new subsystem to the paper's
// Tables 3/4 ground truth: for level-diff regressions that bisection
// resolves to an offending commit, the trace attribution of the same
// finding must name a pass whose component is compatible with the commit's
// component category.
func TestTraceCrossValidatesBisection(t *testing.T) {
	c := tracedCampaign(t)
	validated := 0
	for _, p := range []pipeline.Personality{pipeline.GCC, pipeline.LLVM} {
		budget := 6
		seen := map[string]bool{}
		for _, f := range c.FindingsOf(corpus.KindLevelDiff, p, false) {
			key := fmt.Sprintf("%s@%d", f.Marker, f.Seed)
			if seen[key] || budget == 0 {
				continue
			}
			seen[key] = true
			r := c.Result(f.Seed)
			out, err := bisect.Regression(r.Ins, p, pipeline.O3, f.Marker)
			if err != nil {
				continue // long-standing miss, not a regression
			}
			budget--
			a, err := c.AttributeFinding(f)
			if err != nil {
				t.Errorf("%s seed %d %s: bisected to %s but attribution failed: %v",
					p, f.Seed, f.Marker, out.Commit.ID, err)
				continue
			}
			if !trace.Compatible(out.Commit.Component, a.Component) {
				t.Errorf("%s seed %d %s: bisected to component %q but trace names %s (component %q) — incompatible",
					p, f.Seed, f.Marker, out.Commit.Component, a.Killer, a.Component)
				continue
			}
			validated++
			t.Logf("%s seed %d %s: commit %s (%s) ~ killer %s (%s)",
				p, f.Seed, f.Marker, out.Commit.ID, out.Commit.Component, a.Killer, a.Component)
		}
	}
	if validated == 0 {
		t.Fatal("no level-diff regression could be cross-validated on this corpus slice")
	}
}

// passCounter is an extra pipeline observer that only counts pass
// instances.
type passCounter int

func (c *passCounter) BeginPipeline(*ir.Module) {}

func (c *passCounter) AfterPass(*ir.Module, string, int, int, opt.PassStats) { *c++ }

// TestTraceCompilationConsistency: instrumentation observes, never perturbs.
// Every Instr variant — the trace recorder, the remark collector, metrics
// plus a phase sink, and all of them together with an extra observer —
// must emit assembly byte-identical to the uninstrumented compilation, for
// every configuration, and each variant's own profile must be populated.
func TestTraceCompilationConsistency(t *testing.T) {
	variants := []struct {
		name  string
		instr func(reg *metrics.Registry, sink metrics.PhaseSink, obs opt.Observer) Instr
	}{
		{"trace", func(*metrics.Registry, metrics.PhaseSink, opt.Observer) Instr { return Instr{Trace: true} }},
		{"remarks", func(*metrics.Registry, metrics.PhaseSink, opt.Observer) Instr { return Instr{Remarks: true} }},
		{"metrics+phases", func(reg *metrics.Registry, sink metrics.PhaseSink, _ opt.Observer) Instr {
			return Instr{Metrics: reg, Phases: sink}
		}},
		{"all", func(reg *metrics.Registry, sink metrics.PhaseSink, obs opt.Observer) Instr {
			return Instr{Observer: obs, Metrics: reg, Phases: sink, Trace: true, Remarks: true}
		}},
	}
	for _, seed := range []int64{5, 42, 300} {
		ins, err := Instrument(Generate(seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []pipeline.Personality{PersonalityGCC, PersonalityLLVM} {
			for _, lvl := range pipeline.Levels {
				cfg := pipeline.New(p, lvl)
				plain, err := Compile(ins, cfg, Instr{})
				if err != nil {
					t.Fatal(err)
				}
				if plain.Trace != nil || plain.Remarks != nil {
					t.Fatalf("%s: the zero Instr attached a profile", cfg.Name())
				}
				for _, v := range variants {
					t.Run(fmt.Sprintf("seed%d/%s%s/%s", seed, p, lvl, v.name), func(t *testing.T) {
						reg := metrics.New()
						var phases []string
						sink := func(phase string, _ time.Time, _ time.Duration) { phases = append(phases, phase) }
						var passes passCounter
						in := v.instr(reg, sink, &passes)
						comp, err := Compile(ins, cfg, in)
						if err != nil {
							t.Fatal(err)
						}
						if comp.Asm != plain.Asm {
							t.Fatalf("%s: assembly differs from the uninstrumented compilation", cfg.Name())
						}
						if in.Trace && (comp.Trace == nil || len(comp.Trace.Passes) == 0) {
							t.Errorf("traced compilation recorded no passes")
						}
						if in.Remarks && comp.Remarks == nil {
							t.Errorf("remarked compilation has no remark profile")
						}
						if in.Phases != nil {
							want := []string{metrics.PhaseLower, metrics.PhaseOpt, metrics.PhaseCodegen}
							if strings.Join(phases, ",") != strings.Join(want, ",") {
								t.Errorf("phase sink saw %v, want %v", phases, want)
							}
							for _, ph := range want {
								if n := reg.Histogram("phase." + ph).Count(); n != 1 {
									t.Errorf("phase.%s count = %d, want 1", ph, n)
								}
							}
						}
						if in.Observer != nil && passes == 0 {
							t.Errorf("extra observer saw no pass instances")
						}
					})
				}
			}
		}
	}
}
