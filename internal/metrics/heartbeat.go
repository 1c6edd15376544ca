package metrics

import (
	"fmt"
	"io"
	"os"
	"time"
)

// Campaign counter names the heartbeat (and the corpus layer feeding it)
// agree on. internal/corpus increments these; anything watching a live
// campaign reads them.
const (
	CounterSeedsAnalyzed = "campaign.seeds.analyzed"
	CounterSeedsRestored = "campaign.seeds.restored"
	CounterUnits         = "campaign.units"
	CounterCrashes       = "campaign.failures.crash"
	CounterTimeouts      = "campaign.failures.timeout"
	CounterMiscompiles   = "campaign.failures.miscompile"
	CounterInfeasible    = "campaign.failures.infeasible"
)

// Middle-end skip counters. The metrics pass observer adds every pass
// instance's visited/skipped function counts here (an executed instance
// visits every defined function, a skipped one skips every one); their
// ratio is the campaign-wide pass skip rate surfaced by the heartbeat and
// /progress.
const (
	CounterPassVisited = "opt.funcs.visited"
	CounterPassSkipped = "opt.funcs.skipped"
)

// HistCampaignSeed is the per-seed wall-time histogram internal/corpus
// observes; the live ETA estimate (harness.Progress) is derived from its
// mean.
const HistCampaignSeed = "campaign.seed"

// ProgressInfo is the live campaign view shared by the heartbeat and the
// monitor's /progress endpoint (implemented by harness.Progress). Routing
// both displays through one implementation keeps the terminal and HTTP
// views agreeing on the finding count and the ETA estimate.
type ProgressInfo interface {
	// FindingCount is the number of findings discovered so far.
	FindingCount() int
	// ETA estimates the remaining campaign wall time; ok is false while
	// there is no basis for an estimate yet.
	ETA() (eta time.Duration, ok bool)
}

// Heartbeat periodically renders a one-line progress summary of a running
// campaign from its registry counters: seeds done/total, throughput,
// failure counts, and an ETA. It is purely an operator aid — nothing in the
// deterministic report depends on it — and it degrades to silence when the
// output is not an interactive terminal (see StderrIsTerminal) or the
// campaign opts out with -quiet.
type Heartbeat struct {
	// Reg is the campaign registry the progress counters live in.
	Reg *Registry
	// Total is the campaign's seed count (the denominator and ETA basis).
	Total int
	// Out receives the progress lines (typically os.Stderr).
	Out io.Writer
	// Interval is the render period; <= 0 means 2s.
	Interval time.Duration
	// Tool prefixes each line, e.g. "dce-campaign".
	Tool string
	// Progress, when set, enriches the line with the live finding count
	// and replaces the rate-extrapolated ETA with Progress.ETA() — the
	// same estimate the monitor's /progress endpoint serves.
	Progress ProgressInfo
}

// Start launches the heartbeat goroutine and returns a stop function that
// renders one final line and waits for the goroutine to exit. A nil
// receiver, nil registry, or nil output yields a no-op stop.
func (h *Heartbeat) Start() func() {
	if h == nil || h.Reg == nil || h.Out == nil {
		return func() {}
	}
	interval := h.Interval
	if interval <= 0 {
		interval = 2 * time.Second
	}
	start := time.Now()
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				fmt.Fprintln(h.Out, h.line(start))
			case <-done:
				fmt.Fprintln(h.Out, h.line(start))
				return
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// line renders one progress summary.
func (h *Heartbeat) line(start time.Time) string {
	seeds := h.Reg.Counter(CounterSeedsAnalyzed).Value() + h.Reg.Counter(CounterSeedsRestored).Value()
	crashes := h.Reg.Counter(CounterCrashes).Value()
	timeouts := h.Reg.Counter(CounterTimeouts).Value()
	elapsed := time.Since(start).Seconds()
	rate := 0.0
	if elapsed > 0 {
		rate = float64(seeds) / elapsed
	}
	eta := "?"
	switch {
	case h.Total > 0 && int(seeds) >= h.Total:
		eta = "done"
	case h.Progress != nil:
		if d, ok := h.Progress.ETA(); ok {
			eta = d.Round(time.Second).String()
		}
	case rate > 0 && h.Total > 0:
		d := time.Duration(float64(h.Total-int(seeds)) / rate * float64(time.Second))
		eta = d.Round(time.Second).String()
	}
	findings := ""
	if h.Progress != nil {
		findings = fmt.Sprintf("%d findings, ", h.Progress.FindingCount())
	}
	perf := ""
	if units := h.Reg.Counter(CounterUnits).Value(); units > 0 && elapsed > 0 {
		perf = fmt.Sprintf(", %.1f units/s", float64(units)/elapsed)
		visited, skipped := h.Reg.Counter(CounterPassVisited).Value(), h.Reg.Counter(CounterPassSkipped).Value()
		if skip, ok := PassSkipRate(visited, skipped); ok {
			perf += fmt.Sprintf(", %.0f%% skipped", skip*100)
		}
	}
	return fmt.Sprintf("%s: %d/%d seeds, %.1f seeds/s, %s%d crashes, %d timeouts%s, ETA %s",
		h.Tool, seeds, h.Total, rate, findings, crashes, timeouts, perf, eta)
}

// PassSkipRate computes the campaign-wide middle-end skip rate: the fraction
// of (function, pass-instance) visits that fell in pass instances the pass
// manager skipped because the module had not changed since the same pass
// last ran, from the CounterPassVisited and CounterPassSkipped counts. It is
// the one formula behind the heartbeat, /progress, and the /metrics derived
// gauge. ok is false before any pass has run, so displays can omit the
// figure rather than print a bogus zero.
func PassSkipRate(visited, skipped int64) (rate float64, ok bool) {
	if total := visited + skipped; total > 0 {
		return float64(skipped) / float64(total), true
	}
	return 0, false
}

// StderrIsTerminal reports whether stderr is attached to an interactive
// terminal (a character device). Redirected or piped campaigns — including
// the test harness — are detected here and the heartbeat stays silent, so
// log files never fill with progress chatter.
func StderrIsTerminal() bool {
	fi, err := os.Stderr.Stat()
	if err != nil {
		return false
	}
	return fi.Mode()&os.ModeCharDevice != 0
}
