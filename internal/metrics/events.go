package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"dcelens/internal/seqlog"
)

// EventLog is a structured JSONL event stream: one JSON object per line,
// rendered over a seqlog.Log, which assigns each line a monotonic sequence
// number under its lock, so the file totally orders the campaign's events
// even when workers emit concurrently. Timestamps are milliseconds since the
// log was opened (relative, so two logs of the same campaign differ only in
// timing fields, never in identity fields).
//
// Event vocabulary (the "event" field): campaign_begin, seed_begin,
// seed_end, unit_begin, unit_end, failure, checkpoint, remarks (a freshly
// analyzed seed's remark summary, with -remarks), campaign_end. A nil
// *EventLog discards all emissions, so callers thread it unconditionally.
type EventLog struct {
	log   *seqlog.Log
	start time.Time
}

// eventFormat is the JSONL stream's shape: one object per line, and on
// resume the sequence continues from the last line that parses as an event.
var eventFormat = seqlog.Format{Term: "\n", Seq: eventSeq}

// eventSeq reads the seq field back from one event line.
func eventSeq(line []byte) (int64, bool) {
	var rec struct {
		Seq int64 `json:"seq"`
	}
	if json.Unmarshal(line, &rec) != nil || rec.Seq <= 0 {
		return 0, false
	}
	return rec.Seq, true
}

// NewEventLog writes events to w; if w is also an io.Closer, Close closes
// it.
func NewEventLog(w io.Writer) *EventLog {
	return &EventLog{log: seqlog.New(w, eventFormat), start: time.Now()}
}

// OpenEventLog opens a file-backed event log. With resume false the file is
// truncated and sequence numbers start at 1, as NewEventLog(os.Create(...))
// would. With resume true the file is cut back to its last complete line (a
// killed campaign's torn final line is dropped) and appended to, and the
// sequence continues from its last record, so a resumed campaign's log
// reads as one continuous, gapless stream (t_ms stays relative to each
// process's own start; seq is the cross-resume key). A missing file resumes
// from 0.
func OpenEventLog(path string, resume bool) (*EventLog, error) {
	l, err := seqlog.Open(path, resume, eventFormat)
	if err != nil {
		return nil, err
	}
	return &EventLog{log: l, start: time.Now()}, nil
}

// Emit appends one event. The line carries seq, t_ms, and event first in
// key-sorted JSON (encoding/json sorts map keys), then the caller's fields.
// Reserved keys in fields are ignored. Nil-safe.
func (l *EventLog) Emit(event string, fields map[string]any) {
	if l == nil {
		return
	}
	l.log.Append(func(seq int64) (string, error) {
		obj := make(map[string]any, len(fields)+3)
		for k, v := range fields {
			obj[k] = v
		}
		obj["seq"] = seq
		obj["t_ms"] = time.Since(l.start).Milliseconds()
		obj["event"] = event
		b, err := json.Marshal(obj)
		if err != nil {
			return "", fmt.Errorf("metrics: event %s: %w", event, err)
		}
		return string(b), nil
	})
}

// stream is the underlying log, nil for a nil *EventLog.
func (l *EventLog) stream() *seqlog.Log {
	if l == nil {
		return nil
	}
	return l.log
}

// KeepTail enables the in-memory tail of the newest seqlog.TailCap events
// (the monitor's /events endpoint). Call before emitting. Nil-safe.
func (l *EventLog) KeepTail() { l.stream().KeepTail() }

// TailSince returns the kept events with seq > since, oldest first (see
// seqlog.Log.TailSince). Nil-safe.
func (l *EventLog) TailSince(since int64) []seqlog.Record { return l.stream().TailSince(since) }

// Seq returns the sequence number of the last emitted event (0 before the
// first). Nil-safe.
func (l *EventLog) Seq() int64 { return l.stream().Seq() }

// Close closes the underlying writer when it is closable and returns the
// first error the log swallowed, so campaigns can surface a broken event
// stream at exit instead of silently truncating it. Nil-safe.
func (l *EventLog) Close() error { return l.stream().Close() }
