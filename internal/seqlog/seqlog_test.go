package seqlog

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// numbered renders a record as its seq, so the stream is "1\n2\n...".
func numbered(seq int64) (string, error) { return strconv.FormatInt(seq, 10), nil }

// parseNumbered reads a numbered line back.
func parseNumbered(line []byte) (int64, bool) {
	n, err := strconv.ParseInt(string(line), 10, 64)
	return n, err == nil && n > 0
}

var numberedFormat = Format{Head: "#\n", Term: "\n", Seq: parseNumbered}

// TestConcurrentAppendAndTail: concurrent appenders and tail readers keep
// the log's contract — seqs are gapless, the stream's line order is the seq
// order, and every tail read is strictly increasing and never past the
// head.
func TestConcurrentAppendAndTail(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, numberedFormat)
	l.KeepTail()

	const writers, perWriter = 4, 300
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var last int64
				for _, rec := range l.TailSince(last) {
					if rec.Seq != last+1 && last != 0 {
						t.Errorf("tail read skipped from %d to %d", last, rec.Seq)
						return
					}
					if rec.Line != strconv.FormatInt(rec.Seq, 10) {
						t.Errorf("record %d holds line %q", rec.Seq, rec.Line)
						return
					}
					last = rec.Seq
				}
				if head := l.Seq(); last > head {
					t.Errorf("tail seq %d beyond head %d", last, head)
					return
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				l.Append(numbered)
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	const total = writers * perWriter
	if got := l.Seq(); got != total {
		t.Fatalf("final seq = %d, want %d", got, total)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != total+1 || lines[0] != "#" {
		t.Fatalf("stream has %d lines (head %q), want the head and %d records", len(lines), lines[0], total)
	}
	for i, line := range lines[1:] {
		if line != strconv.Itoa(i+1) {
			t.Fatalf("stream line %d = %q, want records in seq order", i+1, line)
		}
	}
}

// TestOpenResumeCutsTornLine: resuming cuts a torn final line, continues
// numbering from the last record that parses (skipping a trailing line
// that does not), and writes the head only into an empty stream.
func TestOpenResumeCutsTornLine(t *testing.T) {
	for _, tc := range []struct {
		name   string
		prior  string
		exists bool
		want   string
	}{
		{"missing", "", false, "#\n1\n2\n"},
		{"torn head", "#", true, "#\n1\n2\n"},
		{"torn record", "#\n1\n2\n3", true, "#\n1\n2\n3\n4\n"},
		{"junk after record", "#\n1\nxx\n", true, "#\n1\nxx\n2\n3\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log")
			if tc.exists {
				if err := os.WriteFile(path, []byte(tc.prior), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			l, err := Open(path, true, numberedFormat)
			if err != nil {
				t.Fatal(err)
			}
			l.Append(numbered)
			l.Append(numbered)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if got, _ := os.ReadFile(path); string(got) != tc.want {
				t.Fatalf("resumed file = %q, want %q", got, tc.want)
			}
		})
	}
}

// TestOpenResumeRefusesExhaustedSeq: a prior record whose seq leaves no
// exactly-representable room to continue is an error, not a wrap.
func TestOpenResumeRefusesExhaustedSeq(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, []byte("#\n"+strconv.FormatInt(maxSeq, 10)+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, true, numberedFormat); err == nil {
		t.Fatal("resuming past maxSeq succeeded")
	}
}

// TestRenderErrorLatched: a render error is latched for Close and numbers
// nothing; later records are still numbered and kept, but not written.
func TestRenderErrorLatched(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, Format{Term: "\n"})
	l.KeepTail()
	boom := errors.New("boom")
	l.Append(numbered)
	l.Append(func(int64) (string, error) { return "", boom })
	l.Append(numbered)
	if got := l.Seq(); got != 2 {
		t.Fatalf("seq = %d, want 2 (the failed render numbers nothing)", got)
	}
	if got := buf.String(); got != "1\n" {
		t.Fatalf("stream = %q, want only the record before the error", got)
	}
	if tail := l.TailSince(0); len(tail) != 2 {
		t.Fatalf("tail = %+v, want both numbered records", tail)
	}
	if err := l.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close = %v, want the latched render error", err)
	}
}

func TestNilLog(t *testing.T) {
	var l *Log
	l.Append(numbered)
	l.KeepTail()
	if l.Seq() != 0 || l.TailSince(0) != nil || l.Close() != nil {
		t.Fatal("nil log must be inert")
	}
}
