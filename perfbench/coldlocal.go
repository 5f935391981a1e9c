package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"silkroute"
	"silkroute/internal/obs"
	"silkroute/internal/tpch"
	"silkroute/internal/viewtree"
)

// coldScale is the paper's Config A.
const coldScale = 0.001

// coldTraceRounds is how many rounds of the nine (view, strategy) pairs the
// traced replay runs.
const coldTraceRounds = 3

// splitTolerance bounds how far the traced sqlexec share of exec+tag time
// may sit from the share the facade's Report gives for the same documents.
const splitTolerance = 0.10

var coldStrategies = []silkroute.Strategy{silkroute.Greedy, silkroute.OuterUnion, silkroute.FullyPartitioned}

// coldLocal materializes the three paper views in-process with no caches
// and one caller, cycling over every (view, strategy) pair.
type coldLocal struct {
	seed  int64
	db    *silkroute.DB
	views []*silkroute.View
	refs  [][]byte // per view: the uncached FullyPartitioned document
	ops   func() coldOp
}

type coldOp struct {
	view  int
	strat silkroute.Strategy
}

// newColdLocal generates the data, compiles the views and makes each
// view's reference document — which is also its warm-up pass.
func newColdLocal(ctx context.Context, seed int64) (workload, error) {
	c := &coldLocal{seed: seed, db: silkroute.OpenTPCH(coldScale, seed), ops: coldOps(seed)}
	for _, f := range families {
		v, err := silkroute.ParseView(c.db, f.src)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if _, err := v.Materialize(ctx, &buf, silkroute.FullyPartitioned); err != nil {
			return nil, fmt.Errorf("reference %s: %w", f.name, err)
		}
		c.views = append(c.views, v)
		c.refs = append(c.refs, buf.Bytes())
	}
	return c, nil
}

// coldOps yields rounds of the nine (view, strategy) pairs, each round in a
// seeded order.
func coldOps(seed int64) func() coldOp {
	rng := rand.New(rand.NewSource(seed))
	var round []coldOp
	return func() coldOp {
		if len(round) == 0 {
			for _, i := range rng.Perm(len(families) * len(coldStrategies)) {
				round = append(round, coldOp{view: i / len(coldStrategies), strat: coldStrategies[i%len(coldStrategies)]})
			}
		}
		op := round[0]
		round = round[1:]
		return op
	}
}

func (c *coldLocal) close() {}

func (c *coldLocal) measure(ctx context.Context, d time.Duration) (*tally, error) {
	t := newTally()
	t.round = len(families) * len(coldStrategies)
	var buf bytes.Buffer
	clk := startClock()
	for clk.elapsed() < d {
		op := c.ops()
		buf.Reset()
		start := time.Now()
		_, err := c.views[op.view].Materialize(ctx, &buf, op.strat)
		ms := float64(time.Since(start)) / 1e6
		t.attempted++
		switch {
		case err != nil:
			fmt.Printf("# error: %s/%s: %v\n", families[op.view].name, op.strat, err)
			t.failed++
			t.latMS = append(t.latMS, math.Inf(1))
		case !bytes.Equal(buf.Bytes(), c.refs[op.view]):
			t.mismatched++
			t.latMS = append(t.latMS, math.Inf(1))
		default:
			t.done = append(t.done, clk.elapsed())
			t.latMS = append(t.latMS, ms)
			fam := families[op.view].name
			t.byFamily[fam] = append(t.byFamily[fam], ms)
		}
	}
	t.elapsed = clk.elapsed()
	t.allDocs = int64(len(t.done))
	clk.finish(t)
	return t, nil
}

// trace replays the first rounds of the operation sequence through the
// local layers on a second, identical database, then checks the traced
// sqlexec/tagger split against the facade's own Report for the same
// documents.
func (c *coldLocal) trace(ctx context.Context, tr *tracer, lm *layerMetrics) error {
	eng := tpch.Generate(coldScale, c.seed)
	trees := make([]*viewtree.Tree, len(families))
	for i, f := range families {
		var err error
		if trees[i], err = buildTree(f.src); err != nil {
			return err
		}
	}
	ops := coldOps(c.seed)
	n := coldTraceRounds * len(families) * len(coldStrategies)
	replay := make([]coldOp, n)
	for i := range replay {
		replay[i] = ops()
	}

	m := obs.NewMetrics()
	obs.SetGlobal(m)
	var execNS, tagNS int64
	for _, op := range replay {
		root := tr.root("doc", true)
		p, err := tracedPlan(ctx, tr, lm, eng, trees[op.view], op.strat)
		if err != nil {
			return err
		}
		p.Wrapper = wrapper
		first := len(tr.spans)
		doc, err := tracedLocal(ctx, tr, lm, eng, trees[op.view], p)
		tr.stop(root)
		if err != nil {
			return err
		}
		for _, s := range tr.spans[first:] {
			switch s.Name {
			case "sqlexec.exec":
				execNS += s.dur()
			case "tagger.tag":
				tagNS += s.dur()
			}
		}
		if !bytes.Equal(doc, c.refs[op.view]) {
			lm.mismatched++
		}
	}
	obs.SetGlobal(nil)
	rows := lm.sum["sqlexec.rows_out"]
	lm.set("sqlexec.examined_per_row", ratio(float64(m.Exec.RowsScanned.Value()+m.Exec.RowsJoined.Value()), rows))
	lm.set("sqlexec.rows_sorted", float64(m.Exec.RowsSorted.Value())/float64(n))
	lm.set("sqlexec.spill_runs", float64(m.Exec.SortSpills.Value())/float64(n))

	// The facade runs its queries on every CPU; a serial view makes its
	// QueryWallTime the summed query time the traced split measures.
	var queryNS, tailNS int64
	for _, op := range replay {
		v, err := silkroute.ParseView(c.db, families[op.view].src, silkroute.WithParallelism(1))
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		rep, err := v.Materialize(ctx, &buf, op.strat)
		if err != nil {
			return err
		}
		queryNS += int64(rep.QueryWallTime)
		tailNS += int64(rep.TotalTime - rep.QueryWallTime)
	}
	traced := ratio(float64(execNS), float64(execNS+tagNS))
	reported := ratio(float64(queryNS), float64(queryNS+tailNS))
	verdict := "agrees"
	if math.Abs(traced-reported) > splitTolerance {
		verdict = "DISAGREES"
	}
	lm.note("sqlexec share of exec+tag: traced %.3f, Report.QueryWallTime/TotalTime %.3f — %s within ±%.2f",
		traced, reported, verdict, splitTolerance)
	lm.note("traced Greedy costs candidates serially (Parallelism 1); the facade uses every CPU")
	return nil
}
