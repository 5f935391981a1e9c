package plan

import (
	"fmt"
	"io"
	"testing"

	"silkroute/internal/engine"
	"silkroute/internal/rxl"
	"silkroute/internal/tpch"
	"silkroute/internal/viewtree"
	"silkroute/internal/wire"
)

// BenchmarkParallelExecute measures Execute over wire.Local across the streams ×
// parallelism grid: the unified plan (one stream, where the pool cannot
// help) and the fully partitioned plan (one stream per view-tree node,
// the best case for the worker pool). The interesting comparison is
// partitioned par=1 vs par>=4 wall clock — on a multi-core host the
// partitioned rows should show the speedup the paper's concurrent result
// sets imply, while QueryTime (summed open time) stays flat.
func BenchmarkParallelExecute(b *testing.B) {
	db := tpch.Generate(0.005, 42)
	q, err := rxl.Parse(rxl.Query1Source)
	if err != nil {
		b.Fatal(err)
	}
	tree, err := viewtree.Build(q, db.Schema)
	if err != nil {
		b.Fatal(err)
	}
	for _, shape := range []struct {
		name string
		mk   func() *Plan
	}{
		{"unified", func() *Plan { return Unified(tree, true) }},
		{"partitioned", func() *Plan { return FullyPartitioned(tree) }},
	} {
		for _, par := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/par=%d", shape.name, par), func(b *testing.B) {
				benchExecute(b, db, shape.mk, par)
			})
		}
	}
}

func benchExecute(b *testing.B, db *engine.Database, mk func() *Plan, par int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := mk()
		p.Parallelism = par
		m, err := Execute(ctx, wire.Local(db), p, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(m.Streams), "streams")
		}
	}
}
