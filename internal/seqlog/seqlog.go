// Package seqlog is the ordered record stream behind dcelens's live logs:
// the JSONL event log (internal/metrics) and the span timeline
// (internal/span). It owns what those streams share — how records are
// numbered, kept in memory for live readers, written, and resumed after a
// kill — so a renderer above it decides only what a record's line says.
//
// Resume policy: a killed run can leave a torn final line. Reopening for
// resume cuts the file back to just after its last newline before anything
// is appended, so every line in the file is one the writer finished, and
// numbering continues from the last complete line that reads as a record.
package seqlog

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sync"
)

// TailCap is the capacity of the in-memory tail (KeepTail): the newest
// TailCap records stay available to live readers.
const TailCap = 4096

// maxSeq bounds the sequence number a resumed stream may continue from.
// JSON readers commonly decode numbers as float64, which is exact only up
// to 2^53, so a prior record claiming more is refused rather than
// continued.
const maxSeq = 1 << 53

// Record is one rendered line held in the tail: its sequence number and
// its text, without the stream's terminator.
type Record struct {
	Seq  int64
	Line string
}

// Format describes a stream's bytes to the log.
type Format struct {
	// Head opens an empty stream; "" writes nothing.
	Head string
	// Term follows every record line in the stream.
	Term string
	// Seq reads a record's sequence number back from one complete line
	// when resuming; ok is false for a line that is not a record. Nil
	// restarts numbering at zero on resume.
	Seq func(line []byte) (seq int64, ok bool)
}

// Log is a sequenced, append-only record stream. Sequence numbers are
// assigned and lines written under one lock, so the stream's order is the
// seq order even when records are appended concurrently. All methods are
// nil-safe: a nil *Log discards everything.
type Log struct {
	mu   sync.Mutex
	w    io.Writer
	c    io.Closer
	term string
	seq  int64
	err  error
	buf  []byte

	// tail is the ring behind TailSince (allocated by KeepTail); tailHead
	// indexes the oldest record.
	tail     []Record
	tailLen  int
	tailHead int
}

// New returns a log writing to w, starting with f.Head; if w is also an
// io.Closer, Close closes it. A nil w keeps records in the tail only.
func New(w io.Writer, f Format) *Log {
	l := &Log{w: w, term: f.Term}
	if c, ok := w.(io.Closer); ok {
		l.c = c
	}
	if w != nil && f.Head != "" {
		_, l.err = io.WriteString(w, f.Head)
	}
	return l
}

// Open opens a file-backed log. With resume false the file is truncated
// and numbering starts at 1. With resume true the file is cut back to just
// after its last newline (dropping a torn final line) and appended to, and
// numbering continues from the last complete line f.Seq reads as a record.
// f.Head is written only when the file is empty after the cut; a missing
// file resumes as an empty one.
func Open(path string, resume bool, f Format) (*Log, error) {
	if !resume {
		file, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		return New(file, f), nil
	}
	prior, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	keep := bytes.LastIndexByte(prior, '\n') + 1
	last, err := lastSeq(prior[:keep], f.Seq)
	if err != nil {
		return nil, fmt.Errorf("seqlog: resuming %s: %w", path, err)
	}
	file, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if keep < len(prior) {
		if err := file.Truncate(int64(keep)); err != nil {
			file.Close()
			return nil, err
		}
	}
	if keep > 0 {
		f.Head = ""
	}
	l := New(file, f)
	l.seq = last
	return l, nil
}

// lastSeq scans complete lines (b is empty or ends in a newline) backwards
// for the last one parse reads as a record.
func lastSeq(b []byte, parse func([]byte) (int64, bool)) (int64, error) {
	if parse == nil {
		return 0, nil
	}
	for len(b) > 0 {
		b = b[:len(b)-1]
		start := bytes.LastIndexByte(b, '\n') + 1
		if seq, ok := parse(b[start:]); ok {
			if seq >= maxSeq {
				return 0, fmt.Errorf("last record's seq %d leaves no room to continue", seq)
			}
			return seq, nil
		}
		b = b[:start]
	}
	return 0, nil
}

// Append numbers one record and writes it followed by the format's
// terminator. render receives the record's sequence number and runs under
// the log's lock, so a line that embeds its seq or a timestamp reaches the
// stream in the same order as both; render must not call back into the
// log. A render error is latched like a write error and drops the record
// unnumbered. After a latched error records are still numbered and kept in
// the tail, but nothing more is written. Nil-safe.
func (l *Log) Append(render func(seq int64) (string, error)) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	line, err := render(l.seq + 1)
	if err != nil {
		if l.err == nil {
			l.err = err
		}
		return
	}
	l.seq++
	if len(l.tail) > 0 {
		i := (l.tailHead + l.tailLen) % len(l.tail)
		l.tail[i] = Record{Seq: l.seq, Line: line}
		if l.tailLen < len(l.tail) {
			l.tailLen++
		} else {
			l.tailHead = (l.tailHead + 1) % len(l.tail)
		}
	}
	if l.w != nil && l.err == nil {
		l.buf = append(append(l.buf[:0], line...), l.term...)
		_, l.err = l.w.Write(l.buf)
	}
}

// KeepTail enables the in-memory tail of the newest TailCap records. Call
// it before appending; records appended earlier are not kept. Nil-safe.
func (l *Log) KeepTail() {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.tail == nil {
		l.tail = make([]Record, TailCap)
	}
}

// TailSince returns the kept records with sequence numbers strictly
// greater than since, oldest first. Records older than the tail's capacity
// are gone; a reader detects the gap when the first returned seq exceeds
// since+1. Nil-safe, and empty without KeepTail.
func (l *Log) TailSince(since int64) []Record {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Record
	for i := 0; i < l.tailLen; i++ {
		if r := l.tail[(l.tailHead+i)%len(l.tail)]; r.Seq > since {
			out = append(out, r)
		}
	}
	return out
}

// Seq returns the sequence number of the last record (0 before the first,
// or the resumed stream's last seq). Nil-safe.
func (l *Log) Seq() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Close closes the underlying writer when it is closable and returns the
// first write or render error the log latched, so a caller can surface a
// broken stream at exit instead of silently truncating it. Nil-safe.
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.c != nil {
		if cerr := l.c.Close(); l.err == nil {
			l.err = cerr
		}
		l.c = nil
	}
	return l.err
}
