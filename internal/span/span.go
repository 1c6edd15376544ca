// Package span records a campaign's execution as a hierarchical span
// timeline: job → attempt → seed stage → unit → phase → pass work spans,
// plus the scheduler's own spans (queue wait, worker busy/idle, sequencer
// reorder-buffer stalls, checkpoint writes). It answers the question the
// aggregate registry (internal/metrics) cannot: "where did *this* run's
// wall clock actually go".
//
// Spans are exported as Chrome trace_event JSON — one complete ("ph":"X")
// event per line — loadable directly in Perfetto or chrome://tracing and
// analyzable offline by cmd/dce-prof. The file is written as a JSON array
// whose closing bracket is intentionally omitted (the trace_event format
// explicitly tolerates this), which is what lets a resumed campaign append
// to a halted run's trace and still produce a loadable file.
//
// Design rules, shared with the rest of the telemetry stack:
//
//   - Nil-safe: a nil *Recorder discards everything, so instrumented code
//     threads it unconditionally and a disabled campaign pays one nil check.
//   - Deterministic mode mirrors -metrics=deterministic: only the logical
//     span categories (seed, unit, phase, pass, checkpoint) are kept —
//     scheduler and job spans depend on worker interleaving and are dropped
//     — and every wall-clock field (ts, dur, tid) renders as zero. Because
//     the corpus layer flushes logical spans through the sequencer in slot
//     order, a deterministic trace is byte-identical across -j values and
//     across halt/resume.
//   - Concurrent-safe: the recorder renders spans over a seqlog.Log — the
//     same sequenced stream as the event log — which numbers and writes
//     them under one lock and keeps the optional in-memory tail behind the
//     monitor's resumable /timeline endpoint.
package span

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"dcelens/internal/seqlog"
)

// Span categories. Deterministic recorders keep only the logical
// categories whose identity is a pure function of the corpus (CatSeed,
// CatUnit, CatPhase, CatPass, CatCheckpoint); CatJob and CatSched spans
// describe wall-clock scheduling and exist only in wall traces.
const (
	CatJob        = "job"        // campaign / service-attempt envelope
	CatSeed       = "seed"       // a seed's prepare and finalize stages
	CatUnit       = "unit"       // one (seed, config) compilation unit
	CatPhase      = "phase"      // generate/instrument/truth/lower/opt/codegen
	CatPass       = "pass"       // one executed pass instance
	CatCheckpoint = "checkpoint" // checkpoint write
	CatSched      = "sched"      // queue-wait, busy, idle, seq-stall
)

// deterministicCat reports whether spans of category cat survive
// deterministic redaction.
func deterministicCat(cat string) bool {
	switch cat {
	case CatSeed, CatUnit, CatPhase, CatPass, CatCheckpoint:
		return true
	}
	return false
}

// Arg is one key/value detail on a span. Args are rendered in the order
// given (never sorted), so a span's JSON is a pure function of how the
// instrumentation site built it.
type Arg struct {
	Key, Val string
}

// Int64 builds a numeric argument.
func Int64(key string, v int64) Arg { return Arg{key, strconv.FormatInt(v, 10)} }

// Int builds a numeric argument.
func Int(key string, v int) Arg { return Arg{key, strconv.Itoa(v)} }

// Str builds a string argument.
func Str(key, val string) Arg { return Arg{key, val} }

// Bool builds a boolean argument.
func Bool(key string, v bool) Arg { return Arg{key, strconv.FormatBool(v)} }

// Span is one timed interval of campaign work.
type Span struct {
	Name  string // display name: stage, phase, or pass
	Cat   string // one of the Cat* constants
	TID   int    // track: worker index + 1; 0 is the coordinator track
	Start time.Time
	Dur   time.Duration
	Args  []Arg
}

// Recorder serializes spans into a Chrome trace_event stream, rendered
// over a seqlog.Log that numbers, keeps and writes them. All methods are
// nil-safe.
type Recorder struct {
	log           *seqlog.Log
	deterministic bool
	start         time.Time
}

// New returns a wall-clock recorder writing to w; if w is also an
// io.Closer, Close closes it. The stream header (array opener plus a
// metadata record naming the mode) is written immediately. A nil w keeps
// spans in the tail only.
func New(w io.Writer) *Recorder { return newRecorder(seqlog.New(w, traceFormat(false)), false) }

// NewDeterministic returns a recorder in deterministic mode: scheduler and
// job spans are dropped and all wall-clock fields render as zero, so the
// resulting trace is byte-identical across worker counts and resumes.
func NewDeterministic(w io.Writer) *Recorder {
	return newRecorder(seqlog.New(w, traceFormat(true)), true)
}

func newRecorder(l *seqlog.Log, deterministic bool) *Recorder {
	return &Recorder{log: l, deterministic: deterministic, start: time.Now()}
}

// traceFormat is the trace_event stream's shape: the array opener and a
// metadata record naming the mode, then one object per line, each followed
// by a comma (the closing bracket is never written).
func traceFormat(deterministic bool) seqlog.Format {
	mode := "wall"
	if deterministic {
		mode = "deterministic"
	}
	return seqlog.Format{
		Head: "[\n" + `{"name":"process_name","cat":"__metadata","ph":"M","pid":1,"tid":0,"args":{"name":"dcelens","mode":"` + mode + `"}},` + "\n",
		Term: ",\n",
	}
}

// Open opens a file-backed recorder. With resume false the file is
// truncated and a fresh header written. With resume true the file is cut
// back to its last complete line (a killed campaign's torn final line is
// dropped) and appended to with no new header, so a halted campaign's
// trace plus its resumed continuation reads as one loadable stream (and, in
// deterministic mode, is byte-identical to an uninterrupted run's —
// restored seeds emit no spans). A file that is missing or empty after the
// cut gets the header. Span sequence numbers (the live tail's) restart at
// zero in each process; the trace itself carries none.
func Open(path string, resume, deterministic bool) (*Recorder, error) {
	l, err := seqlog.Open(path, resume, traceFormat(deterministic))
	if err != nil {
		return nil, err
	}
	return newRecorder(l, deterministic), nil
}

// Deterministic reports whether the recorder redacts wall-clock fields.
func (r *Recorder) Deterministic() bool { return r != nil && r.deterministic }

// Emit records one span. Deterministic recorders silently drop categories
// whose timing depends on scheduling (CatJob, CatSched). Nil-safe.
func (r *Recorder) Emit(sp Span) {
	if r == nil || r.deterministic && !deterministicCat(sp.Cat) {
		return
	}
	line := r.render(sp)
	r.log.Append(func(int64) (string, error) { return line, nil })
}

// render serializes one span as a trace_event complete event. Field order is
// fixed so identical spans render identically byte for byte.
func (r *Recorder) render(sp Span) string {
	var b strings.Builder
	b.Grow(96 + 24*len(sp.Args))
	b.WriteString(`{"name":`)
	quoteJSON(&b, sp.Name)
	b.WriteString(`,"cat":`)
	quoteJSON(&b, sp.Cat)
	b.WriteString(`,"ph":"X","ts":`)
	var ts, dur int64
	tid := sp.TID
	if !r.deterministic {
		ts = sp.Start.Sub(r.start).Microseconds()
		dur = sp.Dur.Microseconds()
	} else {
		tid = 0
	}
	b.WriteString(strconv.FormatInt(ts, 10))
	b.WriteString(`,"dur":`)
	b.WriteString(strconv.FormatInt(dur, 10))
	b.WriteString(`,"pid":1,"tid":`)
	b.WriteString(strconv.Itoa(tid))
	if len(sp.Args) > 0 {
		b.WriteString(`,"args":{`)
		for i, a := range sp.Args {
			if i > 0 {
				b.WriteByte(',')
			}
			quoteJSON(&b, a.Key)
			b.WriteByte(':')
			quoteJSON(&b, a.Val)
		}
		b.WriteByte('}')
	}
	b.WriteByte('}')
	return b.String()
}

// quoteJSON writes s as a JSON string. The span vocabulary is plain ASCII
// (pass names, config strings, decimal numbers); anything unusual is still
// escaped correctly.
func quoteJSON(b *strings.Builder, s string) {
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"' || c == '\\':
			b.WriteByte('\\')
			b.WriteByte(c)
		case c < 0x20:
			fmt.Fprintf(b, `\u%04x`, c)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
}

// stream is the underlying log, nil for a nil *Recorder.
func (r *Recorder) stream() *seqlog.Log {
	if r == nil {
		return nil
	}
	return r.log
}

// KeepTail enables the in-memory tail of the newest seqlog.TailCap spans
// (the monitor's /timeline endpoint). Call before emitting. Nil-safe.
func (r *Recorder) KeepTail() { r.stream().KeepTail() }

// TailSince returns the kept spans with seq > since, oldest first (see
// seqlog.Log.TailSince). Nil-safe.
func (r *Recorder) TailSince(since int64) []seqlog.Record { return r.stream().TailSince(since) }

// Seq returns the sequence number of the last recorded span (0 before the
// first). Nil-safe.
func (r *Recorder) Seq() int64 { return r.stream().Seq() }

// Close closes the underlying writer when it is closable and returns the
// first write error the recorder swallowed. Nil-safe.
func (r *Recorder) Close() error { return r.stream().Close() }
