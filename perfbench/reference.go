package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"dcelens/internal/ast"
	"dcelens/internal/corpus"
	"dcelens/internal/report"
)

// reference holds the recorded outputs every run is checked against.
// --record recomputes it through the same public functions the timed runs
// call; a change to the program's output needs a new recording.
type reference struct {
	// Batches holds each campaign workload's pool, by workload name.
	Batches map[string][]batchRef `json:"batches"`
	// Service holds the digest of each pool spec's report from an
	// in-process corpus.Run.
	Service []batchRef `json:"service"`
	Triage  triageRef  `json:"triage"`
}

// batchRef is a campaign batch's report digest and finding count, and
// the median of three timings when recorded — used only to rank the pool
// into cost strata.
type batchRef struct {
	Digest   string  `json:"digest"`
	Findings int     `json:"findings"`
	Ms       float64 `json:"ms"`
}

type triageRef struct {
	Reductions []reductionRef `json:"reductions"`
	Bisections []bisectionRef `json:"bisections"`
}

// reductionRef is a reduced case: its dedup hash, the digest of its
// source, its size, and the interestingness checks it took and accepted.
// Unchanged marks a reduction that returned its input.
type reductionRef struct {
	Finding   string `json:"finding"`
	Hash      string `json:"hash"`
	Source    string `json:"source"`
	Nodes     int    `json:"nodes"`
	Checks    int    `json:"checks"`
	Accepted  int    `json:"accepted"`
	Unchanged bool   `json:"unchanged,omitempty"`
}

// bisectionRef is a bisected commit index (-1: not a regression) and the
// compiles the search took.
type bisectionRef struct {
	Finding  string `json:"finding"`
	Commit   int    `json:"commit"`
	Compiles int    `json:"compiles"`
}

// referencePath is the reference file, relative to the repository root.
const referencePath = "perfbench/reference.json"

func loadReference(path string) (*reference, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r reference
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Batches[campaignSpec.name]) != campaignSpec.pool || len(r.Batches[largeSpec.name]) != largeSpec.pool || len(r.Service) != servicePool {
		return nil, fmt.Errorf("%s: pool sizes differ from the workloads'", path)
	}
	return &r, nil
}

// recordReference recomputes every reference output and writes the file.
func recordReference(path, workdir string, workers int) error {
	r := reference{Batches: map[string][]batchRef{}}
	for _, k := range []*campaignKind{campaignSpec, largeSpec} {
		dir, err := os.MkdirTemp(workdir, "record-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		refs := make([]batchRef, k.pool)
		for b := range refs {
			var run *batchRun
			cost, err := medianMs(func() (err error) {
				run, err = k.runBatch(b, k.workers(workers), dir, nil)
				return err
			})
			if err != nil {
				return err
			}
			if n := len(run.c.Stats.Failures); n > 0 {
				return fmt.Errorf("%s batch %d: %d harness failures", k.name, b, n)
			}
			refs[b] = batchRef{Digest: run.digest, Findings: len(run.c.Findings), Ms: cost}
		}
		r.Batches[k.name] = refs
		fmt.Fprintf(os.Stderr, "recorded %d %s batches\n", k.pool, k.name)
	}

	for j := 0; j < servicePool; j++ {
		spec := serviceSpec(j)
		var c *corpus.Campaign
		cost, err := medianMs(func() (err error) {
			c, err = corpus.Run(corpus.Options{Programs: spec.Programs, BaseSeed: spec.BaseSeed, Workers: spec.Workers})
			return err
		})
		if err != nil {
			return err
		}
		r.Service = append(r.Service, batchRef{Digest: digest(report.Summary(c)), Findings: len(c.Findings), Ms: cost})
	}
	fmt.Fprintf(os.Stderr, "recorded %d service specs\n", servicePool)

	c, ops, err := discover(workers)
	if err != nil {
		return err
	}
	for _, op := range ops {
		f := op.f
		if op.reduce {
			rc, err := c.ReduceFinding(f, reductionOptions)
			if err != nil {
				return err
			}
			res := reduceTraced(nil, nil, c, f)
			if ast.Print(res.Program) != rc.Source {
				return fmt.Errorf("reduction of %s: the layer-by-layer interestingness test reduced differently", findingID(f))
			}
			r.Triage.Reductions = append(r.Triage.Reductions, reductionRef{
				Finding: findingID(f), Hash: rc.Hash, Source: digest(rc.Source), Nodes: rc.Nodes,
				Checks: res.Checks, Accepted: res.accepted, Unchanged: res.NodesAfter == res.NodesBefore,
			})
		} else {
			want := bisectCommit(c, f)
			commit, compiles := regressionTraced(nil, nil, c.Result(f.Seed).Ins, f.Personality, f.Level, f.Marker)
			if commit != want {
				return fmt.Errorf("bisection of %s: the layer-by-layer search found commit %d, bisect.Regression %d", findingID(f), commit, want)
			}
			r.Triage.Bisections = append(r.Triage.Bisections, bisectionRef{Finding: findingID(f), Commit: commit, Compiles: compiles})
		}
	}
	fmt.Fprintf(os.Stderr, "recorded %d triage operations\n", len(ops))

	b, err := json.MarshalIndent(&r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// medianMs times run three times and returns the median in milliseconds.
func medianMs(run func() error) (float64, error) {
	var ds []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if err := run(); err != nil {
			return 0, err
		}
		ds = append(ds, ms(time.Since(t0)))
	}
	return median(ds), nil
}
