// dce-attrib attributes marker eliminations to the pass instances that
// perform them — the trace-based root-cause analysis that complements
// dce-bisect: bisection explains regressions by history commit, provenance
// explains any finding by the pass in the succeeding configuration.
//
// Usage:
//
//	dce-attrib -n 20                        # campaign: eliminations-per-pass
//	                                        # tables + per-finding attribution
//	dce-attrib -seed 42 -compiler llvm -profile   # one-program pass profile
//	dce-attrib -seed 42 -compiler gcc -provenance # one-program marker→killer
package main

import (
	"flag"
	"fmt"
	"os"

	"dcelens"
	"dcelens/internal/cli"
	"dcelens/internal/pipeline"
)

func main() {
	n := flag.Int("n", 20, "campaign corpus size")
	seed := flag.Int64("seed", 1, "base seed (campaign) or program seed (-profile/-provenance)")
	findings := flag.Int("findings", 12, "max findings to attribute in campaign mode")
	profile := flag.Bool("profile", false, "trace one program: per-pass profile with timings")
	provenance := flag.Bool("provenance", false, "trace one program: marker→killer table")
	compiler := flag.String("compiler", "llvm", "gcc or llvm (single-program modes)")
	level := flag.String("level", "O3", "optimization level (single-program modes)")
	prof := cli.Profiling()
	flag.Parse()
	defer prof.Start("dce-attrib")()

	if *profile || *provenance {
		singleProgram(*seed, *compiler, *level, *profile, *provenance)
		return
	}
	campaign(*n, *seed, *findings)
}

// singleProgram traces one generated program under one configuration.
func singleProgram(seed int64, compiler, level string, profile, provenance bool) {
	ins, err := dcelens.Instrument(dcelens.Generate(seed))
	if err != nil {
		fail(err)
	}
	truth, err := dcelens.GroundTruth(ins)
	if err != nil {
		fail(err)
	}
	cfg := mkCompiler(compiler, parseLevel(level))
	comp, err := dcelens.Compile(ins, cfg, dcelens.Instr{Trace: true})
	if err != nil {
		fail(err)
	}
	prof := comp.Trace
	fmt.Printf("%s on seed %d: %d markers, %d dead, %d surviving\n",
		cfg.Name(), seed, len(ins.Markers), len(truth.Dead), len(comp.Missed(truth))+len(truth.Alive))
	if profile {
		fmt.Print(dcelens.ReportPassProfile(prof, true))
	}
	if provenance {
		fmt.Print(dcelens.ReportProvenance(prof.Provenance()))
	}
}

// campaign runs a traced campaign and prints the eliminations-per-pass
// tables plus attribution of the discovered findings.
func campaign(n int, seed int64, maxFindings int) {
	fmt.Fprintf(os.Stderr, "running a traced %d-program campaign...\n", n)
	c, err := dcelens.RunCampaign(dcelens.CampaignOptions{Programs: n, BaseSeed: seed, Trace: true})
	if err != nil {
		fail(err)
	}
	if len(c.Stats.Errors) > 0 {
		fmt.Fprintf(os.Stderr, "campaign errors: %v\n", c.Stats.Errors)
	}
	for _, p := range []pipeline.Personality{pipeline.GCC, pipeline.LLVM} {
		rows := dcelens.EliminationsPerPass(c, p, dcelens.O3)
		title := fmt.Sprintf("Eliminations per pass: %s -O3 (Tables 3/4 analogue, trace side)", p)
		fmt.Println(dcelens.ReportAttributionTable(title, rows))
	}
	if maxFindings <= 0 || len(c.Findings) == 0 {
		return
	}
	fmt.Printf("Finding attribution (%d findings, attributing up to %d):\n", len(c.Findings), maxFindings)
	attributed := 0
	for _, f := range c.Findings {
		if attributed >= maxFindings {
			break
		}
		a, err := dcelens.AttributeFinding(c, f)
		if err != nil {
			fmt.Printf("  %-16s (%s, missed by %s): %v\n", f.Marker, f.Kind, f.Personality, err)
			continue
		}
		attributed++
		fmt.Printf("  %-16s missed by %-9s %-13s eliminated by %-24s via %-18s (%s)\n",
			f.Marker, f.Personality, "("+f.Kind.String()+")", a.Eliminator, a.Killer, a.Component)
	}
}

func mkCompiler(name string, lvl dcelens.Level) *dcelens.Compiler {
	return cli.Compiler("dce-attrib", name, lvl)
}

func parseLevel(s string) dcelens.Level { return cli.Level("dce-attrib", s) }

func fail(err error) { cli.Fail("dce-attrib", err) }
