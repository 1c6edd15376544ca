package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dcelens/internal/service"
	"dcelens/internal/span"
)

// The service workload is a closed loop of two HTTP clients against an
// in-process service handler on loopback: each submits a small job, polls
// it until done, fetches its report and repeats. Jobs come from a pool of
// specs whose in-process corpus.Run reports are recorded; the workload
// seed draws one spec per cost stratum and the clients make whole passes
// over the drawn specs.
const (
	serviceBase     = 30000
	servicePrograms = 2
	servicePool     = 192
	serviceStrata   = 48
	serviceClients  = 2
	// pollEvery matches the service load test's polling interval.
	pollEvery = 5 * time.Millisecond
	// tracedJobs is the fixed number of jobs per client in a traced run.
	tracedJobs = 15
)

func serviceSpec(j int) service.Spec {
	return service.Spec{Programs: servicePrograms, BaseSeed: serviceBase + int64(j*servicePrograms), Workers: 1}
}

// server is one engine behind a loopback HTTP listener. Jobs keep their
// checkpoint and history files under the run's scratch directory.
type server struct {
	engine *service.Engine
	http   *http.Server
	url    string
	done   chan struct{}
	client *http.Client
}

func startServer(dir string) (*server, error) {
	e := service.New("perfbench", service.Limits{
		WorkDir: filepath.Join(dir, "jobs"), HistoryDir: filepath.Join(dir, "history"),
	})
	for _, d := range []string{e.Limits().WorkDir, e.Limits().HistoryDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	e.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.Drain()
		return nil, err
	}
	s := &server{
		engine: e,
		http:   &http.Server{Handler: service.NewServer(e).Handler()},
		url:    "http://" + ln.Addr().String(),
		done:   make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serviceClients}},
	}
	go func() {
		defer close(s.done)
		if err := s.http.Serve(ln); err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		}
	}()
	return s, nil
}

// stop closes the listener and connections, drains the engine and waits
// for the serving goroutine.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.http.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: shutdown:", err)
	}
	<-s.done
	s.engine.Drain()
	s.client.CloseIdleConnections()
}

// get fetches a path and returns the body of a 200 response.
func (s *server) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.url + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s = %d %s", path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// jobResult is one job's client-side view.
type jobResult struct {
	id       string
	report   string
	submitMs float64
	err      error
}

// runJob submits a spec, polls it to a terminal state and fetches the
// report. A refused submission (429, 503) or a job that does not reach
// done is an error.
func (s *server) runJob(t *track, spec service.Spec) jobResult {
	var r jobResult
	body, _ := json.Marshal(spec) // plain struct: cannot fail
	sp := t.begin("service.submit")
	t0 := time.Now()
	resp, err := s.client.Post(s.url+"/jobs", "application/json", bytes.NewReader(body))
	if err == nil {
		var st service.Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusAccepted {
			err = fmt.Errorf("submit = %d", resp.StatusCode)
		}
		r.id = st.ID
	}
	r.submitMs = ms(time.Since(t0))
	t.end(sp)
	if err != nil {
		r.err = err
		return r
	}
	sp = t.begin("service.wait")
	for {
		ps := t.begin("service.poll")
		b, err := s.get("/jobs/" + r.id)
		t.end(ps)
		var st service.Status
		if err == nil {
			err = json.Unmarshal(b, &st)
		}
		if err != nil {
			r.err = err
			break
		}
		if st.State == service.StateDone {
			break
		}
		if st.State.Terminal() {
			r.err = fmt.Errorf("%s ended %s: %s", r.id, st.State, st.Error)
			break
		}
		time.Sleep(pollEvery)
	}
	t.end(sp)
	if r.err != nil {
		return r
	}
	sp = t.begin("service.report")
	b, err := s.get("/jobs/" + r.id + "/report")
	t.end(sp)
	r.report, r.err = string(b), err
	return r
}

// check compares a finished job's report with the recorded report of an
// in-process corpus.Run of the same spec.
func (r jobResult) check(ref *reference, j int) (matches bool) {
	return r.err == nil && digest(r.report) == ref.Service[j].Digest
}

// clients runs the closed loop: each client takes the next spec of the
// order until next returns false, and every finished job is handed to
// record under a lock.
func clients(tr *tracer, next func() (int, bool), record func(j int, r jobResult, d time.Duration), s *server) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		t := tr.newTrack()
		wg.Add(1)
		go func() {
			defer wg.Done()
			root := t.begin("client")
			for {
				j, ok := next()
				if !ok {
					break
				}
				t0 := time.Now()
				r := s.runJob(t, serviceSpec(j))
				d := time.Since(t0)
				mu.Lock()
				record(j, r, d)
				mu.Unlock()
			}
			t.end(root)
		}()
	}
	wg.Wait()
}

func timedService(env *runEnv) (*outcome, error) {
	out := &outcome{correct: true}
	var setups []float64
	var s *server
	warm := medianCost(batchCosts(env.ref.Service))
	for r := 0; r < setupRepeats; r++ {
		if s != nil {
			s.stop()
		}
		start := time.Now()
		var err error
		s, err = startServer(filepath.Join(env.workdir, fmt.Sprint("setup-", r)))
		if err != nil {
			return nil, err
		}
		res := s.runJob(nil, serviceSpec(warm))
		setups = append(setups, time.Since(start).Seconds())
		if !res.check(env.ref, warm) {
			out.correct = false
			fmt.Fprintf(os.Stderr, "perfbench: service warm-up job %d differs from its reference: %v\n", warm, res.err)
		}
	}
	defer s.stop()

	// The engine keeps every job it ran, so memory grows with the jobs
	// run: the pass count comes from the recorded job times, not from the
	// clock, and every run of a seed does the same work.
	costs := batchCosts(env.ref.Service)
	pick := stratified(costs, serviceStrata, env.seed)
	var recorded float64
	for _, j := range pick {
		recorded += costs[j] / serviceClients
	}
	total := passesFor(env.seconds, time.Duration(recorded*float64(time.Millisecond))) * len(pick)
	resetPeakRSS()
	var jobMs []float64
	var n atomic.Int64
	start := time.Now()
	next := func() (int, bool) {
		i := int(n.Add(1) - 1)
		return pick[i%len(pick)], i < total
	}
	clients(nil, next, func(j int, r jobResult, d time.Duration) {
		out.attempted++
		if !r.check(env.ref, j) {
			out.failed++
			if r.err == nil {
				out.correct = false
			}
			fmt.Fprintf(os.Stderr, "perfbench: service job for spec %d failed: %v\n", j, r.err)
			return
		}
		jobMs = append(jobMs, ms(d))
	}, s)
	elapsed := time.Since(start)
	endToEnd(out, setups, float64(len(jobMs))/elapsed.Seconds(), geomean(jobMs))
	return out, nil
}

// tracedService runs a fixed number of jobs per client with spans around
// every HTTP call, and reads each job's queue and run time from the
// attempt span on its own timeline (GET /jobs/{id}/timeline) and its
// checkpoint writes from the same timeline.
func tracedService(env *runEnv) (*outcome, error) {
	pick := stratified(batchCosts(env.ref.Service), serviceStrata, env.seed)
	out := &outcome{correct: true}
	s, err := startServer(env.workdir)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	tr := newTracer()
	var x layerExtras
	var submit, queue, run []float64
	var ids []string
	var n atomic.Int64
	next := func() (int, bool) {
		i := int(n.Add(1) - 1)
		return pick[i%len(pick)], i < serviceClients*tracedJobs
	}
	rt := startRuntimeDelta()
	start := time.Now()
	clients(tr, next, func(j int, r jobResult, d time.Duration) {
		out.attempted++
		if !r.check(env.ref, j) {
			out.failed++
			if r.err == nil {
				out.correct = false
			}
			fmt.Fprintf(os.Stderr, "perfbench: service job for spec %d failed: %v\n", j, r.err)
			return
		}
		submit = append(submit, r.submitMs)
		ids = append(ids, r.id)
	}, s)
	wall := time.Since(start)
	x.allocsPerUnit, x.gcPauseMs = rt.stop(len(ids) * servicePrograms * len(configs()))
	x.gapRatio = tr.reconcile(wall, serviceClients)
	for _, id := range ids {
		b, err := s.get("/jobs/" + id + "/timeline")
		if err != nil {
			return nil, err
		}
		t, err := span.Parse(b)
		if err != nil {
			return nil, err
		}
		for _, e := range t.Events {
			switch {
			case e.Cat == span.CatJob && e.Name == "attempt":
				// The job's recorder starts at submission, so the attempt's
				// start offset is the time the job queued.
				queue = append(queue, float64(e.Ts)/1e3)
				run = append(run, float64(e.Dur)/1e3)
			case e.Cat == span.CatCheckpoint:
				x.checkpointMs += float64(e.Dur) / 1e3
			}
		}
		st, err := os.Stat(filepath.Join(env.workdir, "jobs", id+".checkpoint.json"))
		if err != nil {
			return nil, err
		}
		x.checkpointBytes += float64(st.Size())
	}
	x.submitMs, x.queueMs, x.runMs = median(submit), median(queue), median(run)
	// Tracing adds spans on the client side only; the same number of jobs
	// untraced gives the overhead.
	n.Store(0)
	start = time.Now()
	clients(nil, next, func(int, jobResult, time.Duration) {}, s)
	x.overheadRatio = wall.Seconds() / time.Since(start).Seconds()
	out.correct = out.correct && x.reconciled()
	perLayer(&out.metrics, tr, x)
	return out, nil
}
