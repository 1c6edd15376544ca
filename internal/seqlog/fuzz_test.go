package seqlog_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dcelens/internal/metrics"
	"dcelens/internal/span"
)

// FuzzResume feeds arbitrary prior file bytes to both sequenced streams'
// resume path — the event log and the span trace — then emits two records
// and closes. Open may refuse the file; otherwise the file must keep the
// prior bytes up to their last newline, end in the two new records, each a
// whole parseable line, and the event log must number them one and two
// above the last prior record that parses.
func FuzzResume(f *testing.F) {
	f.Fuzz(func(t *testing.T, prior []byte) {
		cut := prior[:bytes.LastIndexByte(prior, '\n')+1]
		dir := t.TempDir()

		events := writePrior(t, filepath.Join(dir, "events.jsonl"), prior)
		if l, err := metrics.OpenEventLog(events, true); err == nil {
			l.Emit("first", map[string]any{"n": 1})
			l.Emit("second", map[string]any{"n": 2})
			last := lastEventSeq(cut)
			for i, line := range appended(t, events, l.Close, cut) {
				var rec struct {
					Seq int64 `json:"seq"`
				}
				if err := json.Unmarshal(line, &rec); err != nil {
					t.Fatalf("new event %d does not parse: %v: %q", i+1, err, line)
				}
				if rec.Seq != last+int64(i)+1 {
					t.Fatalf("new event %d has seq %d, want %d (last prior record %d)", i+1, rec.Seq, last+int64(i)+1, last)
				}
			}
		}

		trace := writePrior(t, filepath.Join(dir, "trace.json"), prior)
		if r, err := span.Open(trace, true, false); err == nil {
			r.Emit(span.Span{Name: "first", Cat: span.CatUnit, Start: time.Now()})
			r.Emit(span.Span{Name: "second", Cat: span.CatUnit, Start: time.Now()})
			for i, line := range appended(t, trace, r.Close, cut) {
				var e span.Event
				obj, ok := bytes.CutSuffix(line, []byte(","))
				if !ok {
					t.Fatalf("new span %d lacks its trailing comma: %q", i+1, line)
				}
				if err := json.Unmarshal(obj, &e); err != nil {
					t.Fatalf("new span %d does not parse: %v: %q", i+1, err, line)
				}
			}
		}
	})
}

// writePrior leaves prior behind at path, as a killed run would.
func writePrior(t *testing.T, path string, prior []byte) string {
	t.Helper()
	if err := os.WriteFile(path, prior, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// appended closes the stream, checks that the file starts with cut, and
// returns the file's last two lines.
func appended(t *testing.T, path string, close func() error, cut []byte) [][]byte {
	t.Helper()
	if err := close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, cut) {
		t.Fatalf("resume rewrote the complete prior lines:\nprior %q\nfile  %q", cut, got)
	}
	lines := bytes.SplitAfter(got[len(cut):], []byte("\n"))
	if n := len(lines); n < 3 || len(lines[n-1]) != 0 {
		t.Fatalf("appended bytes %q are not whole lines ending in two records", got[len(cut):])
	}
	last := lines[len(lines)-3 : len(lines)-1]
	for i := range last {
		last[i] = bytes.TrimSuffix(last[i], []byte("\n"))
	}
	return last
}

// lastEventSeq is the seq of the last complete line that parses as an
// event record, 0 when none does.
func lastEventSeq(b []byte) int64 {
	lines := bytes.Split(b, []byte("\n"))
	for i := len(lines) - 1; i >= 0; i-- {
		var rec struct {
			Seq int64 `json:"seq"`
		}
		if json.Unmarshal(lines[i], &rec) == nil && rec.Seq > 0 {
			return rec.Seq
		}
	}
	return 0
}
