package monitor_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"dcelens/internal/metrics"
	"dcelens/internal/monitor"
	"dcelens/internal/service"
	"dcelens/internal/span"
)

// fill emits five records into each stream; record i carries seed i.
func fill(events *metrics.EventLog, spans *span.Recorder) {
	for i := 1; i <= 5; i++ {
		events.Emit("seed_end", map[string]any{"seed": i})
		spans.Emit(span.Span{Name: "gcc-sim -O2", Cat: span.CatUnit, TID: 1,
			Start: time.Now(), Dur: time.Millisecond, Args: []span.Arg{span.Int("seed", i)}})
	}
}

// eventSeed parses one served event line, checking its seq matches the
// seed it was emitted with.
func eventSeed(line string) (int, error) {
	var rec struct {
		Seq  int64 `json:"seq"`
		Seed int   `json:"seed"`
	}
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		return 0, err
	}
	if rec.Seq != int64(rec.Seed) {
		return 0, fmt.Errorf("event seq %d carries seed %d", rec.Seq, rec.Seed)
	}
	return rec.Seed, nil
}

// spanSeed parses one served trace_event line: a client accumulating the
// lines gets a loadable trace.
func spanSeed(line string) (int, error) {
	tr, err := span.Parse([]byte(line))
	if err != nil {
		return 0, err
	}
	if len(tr.Events) != 1 {
		return 0, fmt.Errorf("line holds %d spans", len(tr.Events))
	}
	return strconv.Atoi(tr.Events[0].Args["seed"])
}

func serve(h http.Handler, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// TestTailContract: every tail route — the monitor's /events and
// /timeline and the service's per-job twins — shares one contract, served
// by monitor.ServeTail: since filtering, the head seq in
// X-Dcelens-Last-Seq, an ndjson body, and a 400 JSON error for a since that
// is not a non-negative integer. A nil source serves an empty 200; an
// unknown job is a 404.
func TestTailContract(t *testing.T) {
	events := metrics.NewEventLog(io.Discard)
	events.KeepTail()
	spans := span.New(io.Discard)
	spans.KeepTail()
	fill(events, spans)
	mon := monitor.New("dce-test", nil, nil, events)
	mon.Spans = spans

	// A queued job on an engine that never starts: its streams hold exactly
	// what the test emits.
	eng := service.New("dce-test", service.Limits{})
	t.Cleanup(eng.Drain)
	job, err := eng.Submit(service.Spec{Programs: 1})
	if err != nil {
		t.Fatal(err)
	}
	fill(job.Events(), job.Spans())
	svc := service.NewServer(eng).Handler()

	for _, tc := range []struct {
		name  string
		h     http.Handler
		path  string
		seeds func(line string) (int, error)
	}{
		{"monitor events", mon.Handler(), "/events", eventSeed},
		{"monitor timeline", mon.Handler(), "/timeline", spanSeed},
		{"service events", svc, "/jobs/" + job.ID + "/events", eventSeed},
		{"service timeline", svc, "/jobs/" + job.ID + "/timeline", spanSeed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, c := range []struct {
				query string
				want  []int // seeds served, in order
			}{
				{"", []int{1, 2, 3, 4, 5}},
				{"?since=0", []int{1, 2, 3, 4, 5}},
				{"?since=3", []int{4, 5}},
				{"?since=5", nil},
			} {
				rec := serve(tc.h, tc.path+c.query)
				if rec.Code != http.StatusOK {
					t.Fatalf("%s = %d, want 200", c.query, rec.Code)
				}
				if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
					t.Fatalf("%s content type = %q", c.query, ct)
				}
				if got := rec.Header().Get("X-Dcelens-Last-Seq"); got != "5" {
					t.Fatalf("%s last-seq header = %q, want 5", c.query, got)
				}
				var got []int
				for _, line := range strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n") {
					if line == "" {
						continue
					}
					seed, err := tc.seeds(line)
					if err != nil {
						t.Fatalf("%s served line %q: %v", c.query, line, err)
					}
					got = append(got, seed)
				}
				if fmt.Sprint(got) != fmt.Sprint(c.want) {
					t.Fatalf("%s served seeds %v, want %v", c.query, got, c.want)
				}
			}
			for _, bad := range []string{"-1", "x", "1.5"} {
				rec := serve(tc.h, tc.path+"?since="+bad)
				if rec.Code != http.StatusBadRequest {
					t.Fatalf("since=%s status = %d, want 400", bad, rec.Code)
				}
				if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
					t.Fatalf("since=%s content type = %q, want application/json", bad, ct)
				}
				var body struct {
					Error string `json:"error"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
					t.Fatalf("since=%s body = %q (err %v), want a JSON error", bad, rec.Body.String(), err)
				}
			}
		})
	}

	bare := monitor.New("dce-test", nil, nil, nil).Handler()
	for _, path := range []string{"/events", "/timeline"} {
		rec := serve(bare, path)
		if rec.Code != http.StatusOK || rec.Body.Len() != 0 || rec.Header().Get("X-Dcelens-Last-Seq") != "0" {
			t.Fatalf("nil-source %s = %d %q (last seq %q), want an empty 200 at seq 0",
				path, rec.Code, rec.Body.String(), rec.Header().Get("X-Dcelens-Last-Seq"))
		}
	}
	for _, route := range []string{"events", "timeline"} {
		rec := serve(svc, "/jobs/job-99/"+route)
		if rec.Code != http.StatusNotFound || rec.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("unknown job /%s = %d %q, want a 404 JSON error", route, rec.Code, rec.Body.String())
		}
	}
}
