package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"

	"silkroute"
	"silkroute/internal/engine"
	"silkroute/internal/plan"
	"silkroute/internal/rxl"
	"silkroute/internal/sqlast"
	"silkroute/internal/sqlgen"
	"silkroute/internal/tagger"
	"silkroute/internal/tpch"
	"silkroute/internal/value"
	"silkroute/internal/viewtree"
)

// wrapper is the document element the facade wraps around a view's output
// by default; the traced replays use the same one so their documents are
// byte-comparable with the served ones.
const wrapper = "document"

// family is one of the paper's views.
type family struct{ name, src string }

var families = []family{
	{"q1", rxl.Query1Source},
	{"q2", rxl.Query2Source},
	{"fragment", rxl.FragmentSource},
}

// nations is the TPC-H nation count; per-nation view variants range over it.
const nations = 25

// nationVariant restricts a paper view to the suppliers of one nation.
func nationVariant(src string, nation int) string {
	const root = "from Supplier $s\n"
	return strings.Replace(src, root, fmt.Sprintf("%swhere $s.nationkey = %d\n", root, nation), 1)
}

// workloadSources lists the RXL sources a workload compiles.
func workloadSources(workload string) []string {
	var out []string
	switch workload {
	case "cold-local":
		for _, f := range families {
			out = append(out, f.src)
		}
	case "serve-sharded":
		for n := 0; n < nations; n++ {
			for _, f := range families {
				out = append(out, nationVariant(f.src, n))
			}
		}
	case "cache-churn":
		for n := 0; n < nations; n++ {
			out = append(out, nationVariant(rxl.Query2Source, n))
		}
	}
	return out
}

// buildTree compiles src to a view tree against the TPC-H schema, untimed.
func buildTree(src string) (*viewtree.Tree, error) {
	q, err := rxl.Parse(src)
	if err != nil {
		return nil, err
	}
	return viewtree.Build(q, tpch.Schema())
}

// tracedOracle wraps the engine's optimizer so each estimate request is a
// span and a count.
type tracedOracle struct {
	eng   *engine.Database
	tr    *tracer
	calls int64
}

func (o *tracedOracle) EstimateQuery(ctx context.Context, q sqlast.Query) (engine.Estimate, error) {
	sp := o.tr.start("engine.estimate")
	e, err := o.eng.EstimateQuery(ctx, q)
	o.tr.stop(sp)
	o.calls++
	return e, err
}

// tracedPlan chooses the strategy's plan. Greedy runs serially here
// (Parallelism 1) so that its estimate calls nest as children of its span;
// the facade's default costs candidates on every CPU.
func tracedPlan(ctx context.Context, tr *tracer, lm *layerMetrics, eng *engine.Database, tree *viewtree.Tree, s silkroute.Strategy) (*plan.Plan, error) {
	switch s {
	case silkroute.OuterUnion:
		return plan.UnifiedOuterUnion(tree, true), nil
	case silkroute.FullyPartitioned:
		return plan.FullyPartitioned(tree), nil
	case silkroute.Greedy:
	default:
		return nil, fmt.Errorf("strategy %v not traced", s)
	}
	o := &tracedOracle{eng: eng, tr: tr}
	prm := plan.DefaultGreedyParams(true)
	prm.Parallelism = 1
	sp := tr.start("plan.greedy")
	res, err := plan.Greedy(ctx, o, tree, prm)
	var p *plan.Plan
	if err == nil {
		p = res.BestPlan(tree)
	}
	tr.stop(sp)
	if err != nil {
		return nil, err
	}
	lm.add("plan.estimate_calls", float64(o.calls))
	return p, nil
}

// tracedStreams generates the plan's SQL.
func tracedStreams(tr *tracer, p *plan.Plan) ([]*sqlgen.Stream, error) {
	sp := tr.start("sqlgen.streams")
	streams, err := p.Streams()
	tr.stop(sp)
	return streams, err
}

// tracedLocal materializes one document by calling each local layer in
// turn: Plan.Streams, Database.ExecuteQueryContext per stream (drained into
// memory), then the tagger over the drained rows.
func tracedLocal(ctx context.Context, tr *tracer, lm *layerMetrics, eng *engine.Database, tree *viewtree.Tree, p *plan.Plan) ([]byte, error) {
	streams, err := tracedStreams(tr, p)
	if err != nil {
		return nil, err
	}
	inputs := make([]tagger.Input, len(streams))
	var rowsOut int
	for i, s := range streams {
		sp := tr.start("sqlexec.exec")
		res, err := eng.ExecuteQueryContext(ctx, s.Query)
		var rows [][]value.Value
		if err == nil {
			rows = make([][]value.Value, 0, res.Len())
			for row, ok := res.Next(); ok; row, ok = res.Next() {
				rows = append(rows, row)
			}
		}
		tr.stop(sp)
		if err != nil {
			return nil, fmt.Errorf("stream %d: %w", i, err)
		}
		rowsOut += len(rows)
		inputs[i] = tagger.Input{Meta: s, Rows: &tagger.SliceSource{RowsData: rows}}
	}
	lm.add("sqlexec.rows_out", float64(rowsOut))
	return tracedTag(tr, lm, tree, inputs)
}

// tracedTag runs the tagger over drained sources, measuring its time and
// the heap bytes it allocates.
func tracedTag(tr *tracer, lm *layerMetrics, tree *viewtree.Tree, inputs []tagger.Input) ([]byte, error) {
	var buf bytes.Buffer
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sp := tr.start("tagger.tag")
	tg := tagger.New(tree)
	tg.Wrapper = wrapper
	err := tg.WriteXML(&buf, inputs)
	tr.stop(sp)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	lm.add("tagger.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/1e6)
	lm.add("tagger.xml_bytes", float64(buf.Len()))
	return buf.Bytes(), nil
}
