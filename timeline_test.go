// Span-timeline acceptance tests: a deterministic trace (dce-campaign
// -trace with -metrics=deterministic) must be byte-identical whether the
// campaign ran serially, on 8 workers, or was halted mid-run and resumed
// from its checkpoint — the same contract the report and metrics tables
// already honor.
package dcelens

import (
	"bytes"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"dcelens/internal/metrics"
	"dcelens/internal/span"
)

// runTraced runs one campaign variant with a deterministic file-backed span
// recorder and returns the trace bytes.
func runTraced(t *testing.T, path string, resume bool, o CampaignOptions) string {
	t.Helper()
	rec, err := OpenSpanTrace(path, resume, true)
	if err != nil {
		t.Fatal(err)
	}
	o.Spans = rec
	if _, err := RunCampaign(o); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestDeterministicTraceByteIdentity(t *testing.T) {
	const programs, baseSeed = 6, 400
	dir := t.TempDir()

	serial := runTraced(t, filepath.Join(dir, "serial.json"), false, CampaignOptions{
		Programs: programs, BaseSeed: baseSeed, Workers: 1,
	})
	parallel := runTraced(t, filepath.Join(dir, "parallel.json"), false, CampaignOptions{
		Programs: programs, BaseSeed: baseSeed, Workers: 8,
	})
	if parallel != serial {
		t.Errorf("8-worker trace differs from serial:\n--- serial\n%s\n--- parallel\n%s", serial, parallel)
	}

	// The trace is loadable and flagged deterministic, with every unit
	// present and its wall-clock fields redacted.
	p, err := AnalyzeSpanTrace([]byte(serial), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Deterministic {
		t.Fatal("trace not flagged deterministic")
	}
	if len(p.Units) == 0 || p.Units[0].Us != 0 {
		t.Fatalf("units = %+v, want redacted unit rows", p.Units)
	}

	// Halt + resume: drain after two seeds, resume on 8 workers appending to
	// the same trace file. The checkpointed baseline never stops. Restored
	// seeds emit no spans, so the concatenated trace must equal the
	// uninterrupted run's byte for byte.
	baseline := runTraced(t, filepath.Join(dir, "baseline.json"), false, CampaignOptions{
		Programs: programs, BaseSeed: baseSeed, Workers: 1,
		Checkpoint: NewCheckpoint(filepath.Join(dir, "baseline-cp.json")),
	})

	cpPath := filepath.Join(dir, "cp.json")
	tracePath := filepath.Join(dir, "resumed.json")
	var polls atomic.Int32
	runTraced(t, tracePath, false, CampaignOptions{
		Programs: programs, BaseSeed: baseSeed, Workers: 4,
		Checkpoint: NewCheckpoint(cpPath),
		Stop:       func() bool { return polls.Add(1) > 2 },
	})
	cp, err := LoadCheckpoint(cpPath)
	if err != nil {
		t.Fatal(err)
	}
	resumed := runTraced(t, tracePath, true, CampaignOptions{
		Programs: programs, BaseSeed: baseSeed, Workers: 8,
		Checkpoint: cp,
	})
	if resumed != baseline {
		t.Errorf("halted+resumed trace differs from uninterrupted run:\n--- baseline\n%s\n--- resumed\n%s", baseline, resumed)
	}
}

// TestPhaseViewsAgree: the phase histograms and the phase spans come from
// one clock, so they describe the same executions and the same durations.
// Per phase, the histogram counts exactly the recorded spans, and its sum
// exceeds the spans' total only by the sub-microsecond remainders the span
// rendering truncates (at most 1µs per span).
func TestPhaseViewsAgree(t *testing.T) {
	var buf bytes.Buffer
	rec := NewSpanRecorder(&buf)
	reg := NewMetrics()
	if _, err := RunCampaign(CampaignOptions{
		Programs: 3, BaseSeed: 40, Workers: 2, Metrics: reg, Spans: rec,
	}); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := span.Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int64{}
	total := map[string]time.Duration{}
	for _, e := range tr.Events {
		if e.Cat == span.CatPhase {
			count[e.Name]++
			total[e.Name] += time.Duration(e.Dur) * time.Microsecond
		}
	}
	phases := []string{
		metrics.PhaseGenerate, metrics.PhaseInstrument, metrics.PhaseTruth,
		metrics.PhaseLower, metrics.PhaseOpt, metrics.PhaseCodegen,
	}
	for _, ph := range phases {
		h := reg.Histogram("phase." + ph)
		if h.Count() == 0 || h.Count() != count[ph] {
			t.Errorf("phase %s: histogram count %d, %d spans", ph, h.Count(), count[ph])
			continue
		}
		if gap := h.Sum() - total[ph]; gap < 0 || gap >= time.Duration(h.Count())*time.Microsecond {
			t.Errorf("phase %s: histogram sum %v vs span total %v (gap %v over %d spans)",
				ph, h.Sum(), total[ph], gap, h.Count())
		}
	}
	if len(count) != len(phases) {
		t.Errorf("span phases %v, want exactly %v", count, phases)
	}
}
