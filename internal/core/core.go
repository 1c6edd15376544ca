// Package core implements the paper's contribution: finding missed
// optimizations through the lens of dead code elimination.
//
// The pipeline (paper Figure 1):
//
//	① instrument basic blocks with markers        (internal/instrument)
//	② compile with multiple compilers/levels      (this package, via internal/pipeline)
//	③ compare surviving markers in the assembly   (this package, via internal/asm)
//	④ filter to primary missed markers            (markercfg.go)
//
// Ground truth (which markers are actually dead) comes from executing the
// deterministic, input-free program (internal/interp), exactly as in §4.1.
package core

import (
	"fmt"
	"sort"

	"dcelens/internal/asm"
	"dcelens/internal/instrument"
	"dcelens/internal/interp"
	"dcelens/internal/ir"
	"dcelens/internal/lower"
	"dcelens/internal/metrics"
	"dcelens/internal/opt"
	"dcelens/internal/pipeline"
	"dcelens/internal/remark"
	"dcelens/internal/trace"
)

// Truth is the executed ground truth of an instrumented program.
type Truth struct {
	Alive    map[string]bool // markers that executed
	Dead     []string        // markers that never executed (sorted)
	Checksum uint64
	ExitCode int64
}

// GroundTruth executes the instrumented program and classifies every
// marker. Dead code observed during the single execution is dead for all
// executions, because MiniC programs are closed and deterministic.
func GroundTruth(ins *instrument.Program) (*Truth, error) {
	res, err := interp.Run(ins.Prog, interp.Options{})
	if err != nil {
		return nil, fmt.Errorf("core: ground truth execution: %w", err)
	}
	t := &Truth{
		Alive:    map[string]bool{},
		Checksum: res.Checksum,
		ExitCode: res.ExitCode,
	}
	for _, m := range ins.Markers {
		if res.Executed(m.Name) {
			t.Alive[m.Name] = true
		} else {
			t.Dead = append(t.Dead, m.Name)
		}
	}
	sort.Strings(t.Dead)
	return t, nil
}

// Compilation is the result of compiling one instrumented program with one
// compiler configuration.
type Compilation struct {
	Config *pipeline.Config
	// Module and Asm are the optimized IR and its listing. Campaign
	// analyses (corpus.ProgramResult.PerCfg) drop both once the unit is
	// analyzed; only a direct Compile or Analyze keeps them.
	Module *ir.Module
	Asm    string
	// Alive holds the markers surviving in the assembly (the compiler
	// could not prove their blocks dead).
	Alive map[string]bool

	// Trace is the per-pass profile and marker provenance of the
	// compilation; nil unless compiled with Instr.Trace.
	Trace *trace.Profile
	// Remarks is the compilation's optimization-remark profile: per-pass
	// applied/missed counts, miss-reason histogram, and each surviving
	// marker's nearest-miss chain; nil unless compiled with Instr.Remarks.
	Remarks *remark.Profile
}

// Instr is a compilation's optional instrumentation. The zero value
// compiles uninstrumented; no field changes the produced assembly.
type Instr struct {
	// Observer is an extra pipeline observer (the harness watchdog/fault
	// guard, a campaign's pass-span projector), chained after the trace
	// recorder; nil adds none.
	Observer opt.Observer
	// Metrics receives the phase.lower/opt/codegen histograms, the per-pass
	// timing and changed-rate collectors (opt.MetricsObserver), and the
	// assembly-scan counter; nil records nothing.
	Metrics *metrics.Registry
	// Phases receives each phase execution's own start and duration (the
	// span timeline's per-unit phase spans), timed by the same clock reads
	// as the Metrics histograms; nil records nothing.
	Phases metrics.PhaseSink
	// Trace attaches a trace.Recorder: Compilation.Trace carries per-pass
	// wall times, IR-size deltas, and the provenance attributing each
	// eliminated marker to the pass instance that killed it. The trace's
	// view of surviving markers is verified against the assembly scan, so a
	// provenance entry can be trusted to describe what the oracle observes.
	Trace bool
	// Remarks attaches a remark.Collector: every optimizing pass reports
	// what it applied and what it considered but rejected, and
	// Compilation.Remarks chains the decisions relevant to each surviving
	// marker. Off, the remark seam costs one nil check per pass.
	Remarks bool
}

// Compile lowers, optimizes, and code-generates the instrumented program
// under cfg, then scans the assembly for surviving markers (paper steps
// ②-③), with in's instrumentation attached.
func Compile(ins *instrument.Program, cfg *pipeline.Config, in Instr) (*Compilation, error) {
	clock := metrics.PhaseClock{Reg: in.Metrics, Sink: in.Phases}
	ph := clock.Start(metrics.PhaseLower)
	m, err := lower.Lower(ins.Prog)
	ph.Stop()
	if err != nil {
		return nil, err
	}
	var rec *trace.Recorder
	if in.Trace {
		rec = trace.NewRecorder(ins.MarkerNames(), instrument.IsMarker)
	}
	var coll *remark.Collector
	if in.Remarks {
		// The collector is the chain's only RemarkSink: composing it is
		// what turns the pipeline's remark emission on at all.
		coll = remark.NewCollector(instrument.IsMarker)
	}
	obs := opt.Observers(rec, in.Observer, coll, opt.MetricsObserver(in.Metrics))
	if err := optimize(clock, cfg, m, obs); err != nil {
		return nil, err
	}
	ph = clock.Start(metrics.PhaseCodegen)
	text := asm.Emit(m)
	alive := map[string]bool{}
	for _, name := range asm.SurvivingMarkers(text, instrument.IsMarker) {
		alive[name] = true
	}
	ph.Stop()
	in.Metrics.Counter("stage.asm.scans").Inc()
	c := &Compilation{Config: cfg, Module: m, Asm: text, Alive: alive}
	if rec != nil {
		c.Trace = rec.Profile()
		if err := c.checkTrace(); err != nil {
			return nil, err
		}
	}
	if coll != nil {
		c.Remarks = coll.Profile()
	}
	return c, nil
}

// optimize runs cfg's pass pipeline as the timed opt phase. The phase
// stops in a defer so a pipeline the harness guard aborts by panicking
// (an injected crash, a blown step budget) is still timed.
func optimize(clock metrics.PhaseClock, cfg *pipeline.Config, m *ir.Module, obs opt.Observer) error {
	defer clock.Start(metrics.PhaseOpt).Stop()
	return cfg.CompileObserved(m, obs)
}

// checkTrace cross-checks the trace's IR-level marker scan against the
// assembly oracle: they must agree, or the provenance would attribute
// eliminations the oracle never sees (or miss ones it does).
func (c *Compilation) checkTrace() error {
	surviving := c.Trace.FinalSurviving
	if len(surviving) != len(c.Alive) {
		return fmt.Errorf("core: %s: trace/asm marker disagreement: %d surviving in IR, %d in assembly",
			c.Config.Name(), len(surviving), len(c.Alive))
	}
	for _, name := range surviving {
		if !c.Alive[name] {
			return fmt.Errorf("core: %s: trace/asm marker disagreement: %s survives in IR but not in assembly",
				c.Config.Name(), name)
		}
	}
	return nil
}

// VerifyAgainstTruth executes the compiled module and checks that the
// optimizer preserved the program's observable behaviour — the standing
// assumption of the paper (a compiler that miscompiles would invalidate
// the oracle, and a marker surviving in the binary of a miscompiled
// program is a correctness bug, not a missed optimization).
func (c *Compilation) VerifyAgainstTruth(t *Truth) error {
	res, err := ir.Execute(c.Module, ir.ExecOptions{})
	if err != nil {
		return fmt.Errorf("core: %s: compiled module crashed: %w", c.Config.Name(), err)
	}
	if res.Checksum != t.Checksum || res.ExitCode != t.ExitCode {
		return fmt.Errorf("core: %s: MISCOMPILE: checksum %x/%x exit %d/%d",
			c.Config.Name(), res.Checksum, t.Checksum, res.ExitCode, t.ExitCode)
	}
	return nil
}

// Missed returns the markers that are dead in truth but survive in the
// compilation: the compiler failed to eliminate provably-dead code.
func (c *Compilation) Missed(t *Truth) []string {
	var out []string
	for _, m := range t.Dead {
		if c.Alive[m] {
			out = append(out, m)
		}
	}
	return out
}

// Eliminated returns the dead markers the compilation removed.
func (c *Compilation) Eliminated(t *Truth) []string {
	var out []string
	for _, m := range t.Dead {
		if !c.Alive[m] {
			out = append(out, m)
		}
	}
	return out
}

// SoundnessError reports markers the compiler eliminated although they are
// alive — that would be a miscompilation (the paper assumes compilers never
// misidentify live blocks as dead; we check it).
func (c *Compilation) SoundnessError(t *Truth) []string {
	var out []string
	for m := range t.Alive {
		if !c.Alive[m] {
			out = append(out, m)
		}
	}
	sort.Strings(out)
	return out
}

// DiffMissed implements the paper's differential oracle (§3.1): the
// markers target failed to eliminate although reference eliminated them —
// feasible missed optimizations of target. The truth restricts the
// comparison to actually-dead markers.
func DiffMissed(target, reference *Compilation, t *Truth) []string {
	var out []string
	for _, m := range t.Dead {
		if target.Alive[m] && !reference.Alive[m] {
			out = append(out, m)
		}
	}
	return out
}

// Analysis bundles everything the engine derives for one (program,
// compiler) pair.
type Analysis struct {
	Compilation   *Compilation
	Missed        []string
	PrimaryMissed []string
}

// Analyze compiles ins under cfg (see Compile) and computes missed and
// primary-missed markers relative to the ground truth and the marker CFG.
func Analyze(ins *instrument.Program, cfg *pipeline.Config, t *Truth, g *MarkerCFG, in Instr) (*Analysis, error) {
	comp, err := Compile(ins, cfg, in)
	if err != nil {
		return nil, err
	}
	missed := comp.Missed(t)
	return &Analysis{
		Compilation:   comp,
		Missed:        missed,
		PrimaryMissed: g.Primary(t, missed),
	}, nil
}
