package span

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dcelens/internal/seqlog"
)

func TestRecorderHeaderAndLines(t *testing.T) {
	var buf bytes.Buffer
	r := New(&buf)
	r.Emit(Span{Name: "unit", Cat: CatUnit, TID: 3, Start: time.Now(), Dur: time.Millisecond,
		Args: []Arg{Int64("seed", 7), Bool("ok", true)}})
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "[\n") {
		t.Fatalf("missing array opener:\n%s", out)
	}
	if strings.Contains(out, "]") {
		t.Fatalf("trace must stay unterminated (appendable):\n%s", out)
	}
	if !strings.Contains(out, `"cat":"__metadata"`) || !strings.Contains(out, `"mode":"wall"`) {
		t.Fatalf("missing wall metadata record:\n%s", out)
	}
	if !strings.Contains(out, `"args":{"seed":"7","ok":"true"}`) {
		t.Fatalf("args not rendered in insertion order:\n%s", out)
	}
	tr, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if tr.Deterministic {
		t.Fatal("wall trace parsed as deterministic")
	}
	if len(tr.Events) != 1 || tr.Events[0].Name != "unit" || tr.Events[0].TID != 3 {
		t.Fatalf("round trip lost the span: %+v", tr.Events)
	}
}

func TestDeterministicRedaction(t *testing.T) {
	var buf bytes.Buffer
	r := NewDeterministic(&buf)
	r.Emit(Span{Name: "busy", Cat: CatSched, TID: 1, Start: time.Now(), Dur: time.Second})
	r.Emit(Span{Name: "campaign", Cat: CatJob, TID: 0, Start: time.Now(), Dur: time.Second})
	r.Emit(Span{Name: "gcc-sim -O2", Cat: CatUnit, TID: 5, Start: time.Now(), Dur: time.Second,
		Args: []Arg{Int64("seed", 1)}})
	if got := r.Seq(); got != 1 {
		t.Fatalf("sched and job spans must be dropped: seq = %d, want 1", got)
	}
	out := buf.String()
	if !strings.Contains(out, `"mode":"deterministic"`) {
		t.Fatalf("missing deterministic metadata:\n%s", out)
	}
	if !strings.Contains(out, `"ts":0,"dur":0,"pid":1,"tid":0`) {
		t.Fatalf("wall fields not redacted:\n%s", out)
	}
	tr, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !tr.Deterministic || len(tr.Events) != 1 {
		t.Fatalf("deterministic=%v events=%d, want true/1", tr.Deterministic, len(tr.Events))
	}
}

func TestRenderEscaping(t *testing.T) {
	var buf bytes.Buffer
	r := New(&buf)
	r.Emit(Span{Name: "we\"ird\\name\x01", Cat: CatPhase})
	if _, err := Parse(buf.Bytes()); err != nil {
		t.Fatalf("escaped span does not re-parse: %v\n%s", err, buf.String())
	}
}

func TestTailRing(t *testing.T) {
	r := New(nil)
	r.KeepTail()
	const n = seqlog.TailCap + 2
	for i := 0; i < n; i++ {
		r.Emit(Span{Name: "p", Cat: CatPhase})
	}
	got := r.TailSince(0)
	if len(got) != seqlog.TailCap || got[0].Seq != 3 || got[len(got)-1].Seq != n {
		t.Fatalf("tail holds %d spans, want the %d from seq 3 to %d", len(got), seqlog.TailCap, n)
	}
	if got := r.TailSince(n - 1); len(got) != 1 || got[0].Seq != n {
		t.Fatalf("TailSince(n-1) = %+v, want just seq n", got)
	}
	if got := r.TailSince(n); len(got) != 0 {
		t.Fatalf("TailSince(n) = %+v, want empty", got)
	}
}

func TestNilRecorder(t *testing.T) {
	var r *Recorder
	r.Emit(Span{Name: "x", Cat: CatUnit})
	r.KeepTail()
	if r.Seq() != 0 || r.TailSince(0) != nil || r.Deterministic() {
		t.Fatal("nil recorder must be inert")
	}
	if err := r.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
}

func TestOpenResumeAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	r1, err := Open(path, false, true)
	if err != nil {
		t.Fatal(err)
	}
	r1.Emit(Span{Name: "a", Cat: CatUnit})
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}
	first, _ := os.ReadFile(path)

	r2, err := Open(path, true, true)
	if err != nil {
		t.Fatal(err)
	}
	r2.Emit(Span{Name: "b", Cat: CatUnit})
	if err := r2.Close(); err != nil {
		t.Fatal(err)
	}
	both, _ := os.ReadFile(path)
	if !bytes.HasPrefix(both, first) {
		t.Fatalf("resume rewrote the existing prefix:\n%s", both)
	}
	if c := bytes.Count(both, []byte("__metadata")); c != 1 {
		t.Fatalf("resume must not write a second header (got %d)", c)
	}
	tr, err := ParseFile(path)
	if err != nil {
		t.Fatalf("ParseFile after resume: %v", err)
	}
	if len(tr.Events) != 2 || tr.Events[0].Name != "a" || tr.Events[1].Name != "b" {
		t.Fatalf("appended trace events = %+v", tr.Events)
	}

	// Resuming a missing file still writes the header.
	fresh := filepath.Join(t.TempDir(), "missing.json")
	r3, err := Open(fresh, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := r3.Close(); err != nil {
		t.Fatal(err)
	}
	b, _ := os.ReadFile(fresh)
	if !bytes.Contains(b, []byte("__metadata")) {
		t.Fatalf("resume of an empty file must write the header:\n%s", b)
	}
}

// TestOpenResumeTornLine: a killed run's torn final line is cut off on
// resume, so the continued trace still parses, holding exactly the spans
// that were written whole.
func TestOpenResumeTornLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	r1, err := Open(path, false, true)
	if err != nil {
		t.Fatal(err)
	}
	r1.Emit(Span{Name: "a", Cat: CatUnit})
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}
	whole, _ := os.ReadFile(path)
	if err := os.WriteFile(path, append(whole, `{"name":"b","cat":"se`...), 0o644); err != nil {
		t.Fatal(err)
	}

	r2, err := Open(path, true, true)
	if err != nil {
		t.Fatal(err)
	}
	r2.Emit(Span{Name: "c", Cat: CatUnit})
	if err := r2.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(path)
	if want := string(whole) + `{"name":"c","cat":"unit","ph":"X","ts":0,"dur":0,"pid":1,"tid":0},` + "\n"; string(got) != want {
		t.Fatalf("resumed trace =\n%s\nwant\n%s", got, want)
	}
	tr, err := ParseFile(path)
	if err != nil {
		t.Fatalf("ParseFile after resuming a torn trace: %v", err)
	}
	if len(tr.Events) != 2 || tr.Events[0].Name != "a" || tr.Events[1].Name != "c" {
		t.Fatalf("resumed trace events = %+v, want a then c", tr.Events)
	}
}

func TestParseAcceptsClosedArray(t *testing.T) {
	text := "[\n" +
		`{"name":"u","cat":"unit","ph":"X","ts":1,"dur":2,"pid":1,"tid":1},` + "\n" +
		`{"name":"v","cat":"unit","ph":"X","ts":3,"dur":4,"pid":1,"tid":2}` + "\n]"
	tr, err := Parse([]byte(text))
	if err != nil {
		t.Fatalf("Parse(closed array): %v", err)
	}
	if len(tr.Events) != 2 {
		t.Fatalf("events = %d, want 2", len(tr.Events))
	}
}

func TestCloseReturnsWriteError(t *testing.T) {
	r := New(failWriter{})
	r.Emit(Span{Name: "u", Cat: CatUnit})
	if err := r.Close(); err == nil {
		t.Fatal("Close must surface the swallowed write error")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, os.ErrClosed }
