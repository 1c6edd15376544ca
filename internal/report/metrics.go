package report

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"dcelens/internal/metrics"
)

// phaseOrder is the canonical rendering order of the phase breakdown: the
// conceptual compiler pipeline from source to assembly, with the
// campaign-only stages (generate/instrument/truth) leading. Only phases
// that actually recorded observations render, so single-tool runs stay
// compact.
var phaseOrder = []string{
	metrics.PhaseGenerate,
	metrics.PhaseInstrument,
	metrics.PhaseTruth,
	metrics.PhaseLower,
	metrics.PhaseOpt,
	metrics.PhaseCodegen,
}

// Metrics renders the campaign telemetry: the phase breakdown (where a
// seed's wall time goes between generation, ground truth, lowering, the
// middle-end, and codegen) and the campaign-wide pass-time table
// (total/mean/p50/p90/p99 per pass plus its share of middle-end time and
// changed-rate). For a Deterministic registry every wall-clock-derived
// value renders as "-": the remaining columns (runs, changed%) are pure
// functions of the campaign configuration, so two identical runs render
// byte-identically. An empty or nil registry renders a single line.
func Metrics(reg *metrics.Registry) string {
	if reg == nil {
		return "Telemetry: none recorded\n"
	}
	var sb strings.Builder
	wrotePhases := renderPhases(&sb, reg)
	wrotePasses := renderPasses(&sb, reg)
	if !wrotePhases && !wrotePasses {
		return "Telemetry: none recorded\n"
	}
	return sb.String()
}

// renderPhases writes the phase breakdown; reports whether any phase had
// observations.
func renderPhases(sb *strings.Builder, reg *metrics.Registry) bool {
	type row struct {
		name string
		h    *metrics.Histogram
	}
	var rows []row
	var total time.Duration
	present := map[string]bool{}
	for _, name := range reg.HistogramNames() {
		present[name] = true
	}
	for _, phase := range phaseOrder {
		name := "phase." + phase
		if !present[name] {
			continue
		}
		h := reg.Histogram(name)
		if h.Count() == 0 {
			continue
		}
		rows = append(rows, row{phase, h})
		total += h.Sum()
	}
	if len(rows) == 0 {
		return false
	}
	fmt.Fprintf(sb, "Phase breakdown (%d phases)\n", len(rows))
	fmt.Fprintf(sb, "%-12s %8s %10s %10s %9s %9s %9s %7s\n",
		"Phase", "runs", "total", "mean", "p50", "p90", "p99", "%time")
	for _, r := range rows {
		fmt.Fprintf(sb, "%-12s %8d %10s %10s %9s %9s %9s %7s\n",
			r.name, r.h.Count(),
			dur(reg, r.h.Sum()), dur(reg, r.h.Mean()),
			dur(reg, r.h.P50()), dur(reg, r.h.P90()), dur(reg, r.h.P99()),
			share(reg, r.h.Sum(), total))
	}
	return true
}

// renderPasses writes the campaign-wide pass-time table; reports whether
// any pass had observations.
func renderPasses(sb *strings.Builder, reg *metrics.Registry) bool {
	type row struct {
		name    string
		h       *metrics.Histogram
		changed int64
	}
	var rows []row
	var total time.Duration
	for _, name := range reg.HistogramNames() {
		if !strings.HasPrefix(name, "pass.") {
			continue
		}
		h := reg.Histogram(name)
		if h.Count() == 0 {
			continue
		}
		pass := strings.TrimPrefix(name, "pass.")
		rows = append(rows, row{pass, h, reg.Counter(name + ".changed").Value()})
		total += h.Sum()
	}
	if len(rows) == 0 {
		return false
	}
	if reg.Deterministic {
		// Redacted reports must not depend on wall time, including for
		// ordering; alphabetical is the stable choice.
		sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	} else {
		// A performance report reads best hottest-first.
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].h.Sum() != rows[j].h.Sum() {
				return rows[i].h.Sum() > rows[j].h.Sum()
			}
			return rows[i].name < rows[j].name
		})
	}
	if sb.Len() > 0 {
		sb.WriteString("\n")
	}
	fmt.Fprintf(sb, "Pass timing (%d passes, all configurations)\n", len(rows))
	fmt.Fprintf(sb, "%-18s %8s %8s %10s %10s %9s %9s %9s %7s\n",
		"Pass", "runs", "chg%", "total", "mean", "p50", "p90", "p99", "%opt")
	for _, r := range rows {
		fmt.Fprintf(sb, "%-18s %8d %7.1f%% %10s %10s %9s %9s %9s %7s\n",
			r.name, r.h.Count(), 100*float64(r.changed)/float64(r.h.Count()),
			dur(reg, r.h.Sum()), dur(reg, r.h.Mean()),
			dur(reg, r.h.P50()), dur(reg, r.h.P90()), dur(reg, r.h.P99()),
			share(reg, r.h.Sum(), total))
	}
	return true
}

// dur formats a duration, or the redaction placeholder for deterministic
// registries.
func dur(reg *metrics.Registry, d time.Duration) string {
	if reg.Deterministic {
		return "-"
	}
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	}
}

// share formats d as a percentage of total, redacted for deterministic
// registries.
func share(reg *metrics.Registry, d, total time.Duration) string {
	if reg.Deterministic {
		return "-"
	}
	if total == 0 {
		return "0.0%"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(d)/float64(total))
}
