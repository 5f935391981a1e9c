package silkroute

// Benchmarks, one per table and figure of the paper's evaluation section,
// plus ablations for the design decisions DESIGN.md calls out. The full
// 512-plan sweeps behind Figures 13 and 14 live in cmd/experiments (they
// take minutes); the benchmarks here measure the named plans each figure
// compares — optimal/greedy, unified outer-join, unified outer-union, and
// fully partitioned — so `go test -bench .` regenerates every figure's
// verdict: who wins and by what factor.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"silkroute/internal/engine"
	"silkroute/internal/plan"
	"silkroute/internal/rxl"
	"silkroute/internal/tpch"
	"silkroute/internal/value"
	"silkroute/internal/viewtree"
	"silkroute/internal/wire"
)

// benchScaleA mirrors the paper's Config A; benchScaleB keeps the benches
// fast while preserving the 10× headroom over A.
const (
	benchScaleA = 0.001
	benchScaleB = 0.005
)

type benchEnv struct {
	db     *engine.Database
	client *wire.Client
	tree1  *viewtree.Tree
	tree2  *viewtree.Tree
}

var envCache = map[float64]*benchEnv{}

func env(b *testing.B, scale float64) *benchEnv {
	b.Helper()
	if e, ok := envCache[scale]; ok {
		return e
	}
	db := tpch.Generate(scale, 42)
	db.SortBudgetRows = 50000 // the harness's server memory model
	e := &benchEnv{db: db, client: wire.InProcess(db)}
	for i, dst := range []**viewtree.Tree{&e.tree1, &e.tree2} {
		src := rxl.Query1Source
		if i == 1 {
			src = rxl.Query2Source
		}
		q, err := rxl.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		t, err := viewtree.Build(q, db.Schema)
		if err != nil {
			b.Fatal(err)
		}
		*dst = t
	}
	envCache[scale] = e
	return e
}

func runWire(b *testing.B, e *benchEnv, p *plan.Plan) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := plan.Execute(ctx, e.client, p, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if m.Rows == 0 {
			b.Fatal("no rows transferred")
		}
	}
}

func greedyPlan(b *testing.B, e *benchEnv, t *viewtree.Tree) *plan.Plan {
	b.Helper()
	res, err := plan.Greedy(ctx, e.db, t, plan.DefaultGreedyParams(true))
	if err != nil {
		b.Fatal(err)
	}
	return res.BestPlan(t)
}

// BenchmarkTable1 regenerates the experimental configurations: database
// construction cost at the paper's Config A scale.
func BenchmarkTable1_GenerateConfigA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if db := tpch.Generate(benchScaleA, 42); db == nil {
			b.Fatal("nil database")
		}
	}
}

// BenchmarkSec2Table reproduces §2's timing table: the fully partitioned
// (10-query), greedy (few-query), and unified (1-query) plans of Query 1.
func BenchmarkSec2Table(b *testing.B) {
	e := env(b, benchScaleB)
	b.Run("queries=10_fully_partitioned", func(b *testing.B) {
		runWire(b, e, plan.FullyPartitioned(e.tree1))
	})
	b.Run("queries=few_greedy_optimal", func(b *testing.B) {
		runWire(b, e, greedyPlan(b, e, e.tree1))
	})
	b.Run("queries=1_unified", func(b *testing.B) {
		runWire(b, e, plan.Unified(e.tree1, true))
	})
}

// figureBench measures one figure's marked plans: the greedy/near-optimal
// plan, the unified outer-join plan, the unified outer-union plan, and the
// fully partitioned plan.
func figureBench(b *testing.B, t func(*benchEnv) *viewtree.Tree, reduce bool) {
	e := env(b, benchScaleA)
	tree := t(e)
	b.Run("optimal_greedy", func(b *testing.B) {
		p := greedyPlan(b, e, tree)
		p.Reduce = reduce
		runWire(b, e, p)
	})
	b.Run("unified_outer_join", func(b *testing.B) {
		runWire(b, e, plan.Unified(tree, reduce))
	})
	b.Run("unified_outer_union", func(b *testing.B) {
		runWire(b, e, plan.UnifiedOuterUnion(tree, reduce))
	})
	b.Run("fully_partitioned", func(b *testing.B) {
		runWire(b, e, plan.FullyPartitioned(tree))
	})
}

// BenchmarkFig13a: Query 1, Config A, non-reduced plans (panel a).
func BenchmarkFig13a_Query1_NonReduced(b *testing.B) {
	figureBench(b, func(e *benchEnv) *viewtree.Tree { return e.tree1 }, false)
}

// BenchmarkFig13bc: Query 1, Config A, reduced plans (panels b and c; the
// wire execution measures both query and total time behaviour).
func BenchmarkFig13bc_Query1_Reduced(b *testing.B) {
	figureBench(b, func(e *benchEnv) *viewtree.Tree { return e.tree1 }, true)
}

// BenchmarkFig14a: Query 2, Config A, non-reduced plans.
func BenchmarkFig14a_Query2_NonReduced(b *testing.B) {
	figureBench(b, func(e *benchEnv) *viewtree.Tree { return e.tree2 }, false)
}

// BenchmarkFig14bc: Query 2, Config A, reduced plans.
func BenchmarkFig14bc_Query2_Reduced(b *testing.B) {
	figureBench(b, func(e *benchEnv) *viewtree.Tree { return e.tree2 }, true)
}

// BenchmarkFig15 reproduces Figure 15's Config-B comparison: greedy plans
// versus the outer-union and fully partitioned plans at the larger scale.
func BenchmarkFig15_ConfigB(b *testing.B) {
	e := env(b, benchScaleB)
	for _, q := range []struct {
		name string
		tree *viewtree.Tree
	}{{"query1", e.tree1}, {"query2", e.tree2}} {
		b.Run(q.name+"/greedy", func(b *testing.B) {
			runWire(b, e, greedyPlan(b, e, q.tree))
		})
		b.Run(q.name+"/outer_union", func(b *testing.B) {
			runWire(b, e, plan.UnifiedOuterUnion(q.tree, true))
		})
		b.Run(q.name+"/fully_partitioned", func(b *testing.B) {
			runWire(b, e, plan.FullyPartitioned(q.tree))
		})
	}
}

// BenchmarkFig18_GreedySearch measures the plan-generation algorithm
// itself (Figure 18's selection step): a full greedy search including all
// optimizer estimate requests.
func BenchmarkFig18_GreedySearch(b *testing.B) {
	e := env(b, benchScaleA)
	for _, q := range []struct {
		name string
		tree *viewtree.Tree
	}{{"query1", e.tree1}, {"query2", e.tree2}} {
		for _, reduce := range []bool{false, true} {
			name := q.name + "/reduce=false"
			if reduce {
				name = q.name + "/reduce=true"
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := plan.Greedy(ctx, e.db, q.tree, plan.DefaultGreedyParams(reduce)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAblationReduction isolates §3.5's view-tree reduction: the same
// unified plan with and without reduction (the paper's ~2.5× effect).
func BenchmarkAblationReduction(b *testing.B) {
	e := env(b, benchScaleA)
	b.Run("reduced", func(b *testing.B) { runWire(b, e, plan.Unified(e.tree1, true)) })
	b.Run("non_reduced", func(b *testing.B) { runWire(b, e, plan.Unified(e.tree1, false)) })
}

// BenchmarkAblationJoinStyle isolates §3.4's outer-join versus outer-union
// unified plans — R ⟕ (S ∪ T) versus (R ⟕ S) ∪ (R ⟕ T).
func BenchmarkAblationJoinStyle(b *testing.B) {
	e := env(b, benchScaleA)
	b.Run("outer_join", func(b *testing.B) { runWire(b, e, plan.Unified(e.tree1, true)) })
	b.Run("outer_union", func(b *testing.B) { runWire(b, e, plan.UnifiedOuterUnion(e.tree1, true)) })
}

// BenchmarkAblationGreedyCoefficients sweeps the cost-model weight A/B
// (§5.1 used A=100, B=1 throughout) to show the selection's sensitivity.
func BenchmarkAblationGreedyCoefficients(b *testing.B) {
	e := env(b, benchScaleA)
	for _, ab := range []struct {
		name string
		a, b float64
	}{{"A100_B1", 100, 1}, {"A1_B1", 1, 1}, {"A100_B0", 100, 0}, {"A0_B1", 0, 1}} {
		b.Run(ab.name, func(b *testing.B) {
			prm := plan.DefaultGreedyParams(true)
			prm.A, prm.B = ab.a, ab.b
			for i := 0; i < b.N; i++ {
				res, err := plan.Greedy(ctx, e.db, e.tree1, prm)
				if err != nil {
					b.Fatal(err)
				}
				p := res.BestPlan(e.tree1)
				if _, err := plan.Execute(ctx, e.client, p, io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTaggerConstantSpace demonstrates §3.3's claim: tagging
// allocations per output row stay flat as the database grows (memory
// depends on the view tree, not the data).
func BenchmarkTaggerConstantSpace(b *testing.B) {
	for _, scale := range []float64{0.001, 0.004} {
		e := env(b, scale)
		b.Run(scaleName(scale), func(b *testing.B) {
			p := plan.Unified(e.tree1, true)
			b.ReportAllocs()
			var rows int64
			for i := 0; i < b.N; i++ {
				m, err := plan.Execute(ctx, e.client, p, io.Discard)
				if err != nil {
					b.Fatal(err)
				}
				rows += m.Rows
			}
			b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
		})
	}
}

func scaleName(s float64) string {
	if s >= 0.004 {
		return "scale_large"
	}
	return "scale_small"
}

// BenchmarkWireTransfer isolates the middleware's tuple binding/transfer
// path: the §2 "total time minus query time" component.
func BenchmarkWireTransfer(b *testing.B) {
	e := env(b, benchScaleA)
	sql := "select l.orderkey, l.partkey, l.suppkey, l.lno, l.qty, l.prc from LineItem l order by l.orderkey, l.lno"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := e.client.Query(ctx, sql)
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, err := rows.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(rows.BytesRead)
	}
}

// BenchmarkReplicaFailover measures the cross-replica failover path end to
// end: every iteration opens a sorted stream on a replica that kills it
// (and every same-replica continuation) after 100 rows, burns its one
// same-replica resume, then fails over to the healthy replica and finishes
// the stream there — the degradation ladder's full middle rung.
func BenchmarkReplicaFailover(b *testing.B) {
	db := tpch.Generate(benchScaleA, 42)
	const sql = "select o.orderkey, o.custkey from Orders o order by o.orderkey"
	spec := &wire.ResumeSpec{
		KeyCols: []int{0},
		Rewrite: func(key []value.Value) (string, error) {
			if key == nil {
				return sql, nil
			}
			return fmt.Sprintf(
				"select o.orderkey, o.custkey from Orders o where o.orderkey >= %d order by o.orderkey",
				key[0].AsInt()), nil
		},
	}
	errKill := errors.New("injected kill")
	deadSrv := &wire.Server{DB: db, RowFault: func(string) func(int64) error {
		return func(i int64) error {
			if i >= 100 {
				return errKill
			}
			return nil
		}
	}}
	liveSrv := &wire.Server{DB: db}
	pipeDialer := func(srv *wire.Server) func(context.Context) (net.Conn, error) {
		return func(context.Context) (net.Conn, error) {
			c1, c2 := net.Pipe()
			go srv.ServeConn(c2)
			return c1, nil
		}
	}
	copts := []wire.ClientOption{
		wire.WithResume(wire.Resume{MaxResumes: 1}),
		wire.WithRetry(wire.Retry{BaseDelay: time.Millisecond}),
	}
	dead := wire.NewClient(pipeDialer(deadSrv), copts...)
	live := wire.NewClient(pipeDialer(liveSrv), copts...)
	defer dead.Close()
	defer live.Close()

	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// A fresh set resets the round-robin cursor, so the stream always
		// opens on the dead replica; the clients (and their pools) persist.
		set := wire.NewReplicaSet([]*wire.Client{dead, live})
		rows, err := set.QueryResumable(ctx, sql, spec)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			if _, err := rows.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
			n++
		}
		if rows.Failovers == 0 {
			b.Fatal("no failover exercised")
		}
		if n == 0 {
			b.Fatal("no rows transferred")
		}
	}
}

// BenchmarkAblationSortedVsUnordered compares SilkRoute's sorted,
// constant-space strategy with the [9]-style unordered strategy the
// paper's §6 discusses: the unordered path skips every server sort but
// assembles the whole document in client memory.
func BenchmarkAblationSortedVsUnordered(b *testing.B) {
	e := env(b, benchScaleA)
	b.Run("sorted_constant_space", func(b *testing.B) {
		runWire(b, e, plan.Unified(e.tree1, true))
	})
	b.Run("unordered_in_memory", func(b *testing.B) {
		p := plan.Unified(e.tree1, true)
		p.Unordered = true
		runWire(b, e, p)
	})
}
