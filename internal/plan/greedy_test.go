package plan

import (
	"bytes"
	"testing"

	"silkroute/internal/engine"
	"silkroute/internal/rxl"
	"silkroute/internal/tpch"
	"silkroute/internal/viewtree"
	"silkroute/internal/wire"
)

func greedySetup(t *testing.T, src string) (*viewtree.Tree, *engine.Database) {
	t.Helper()
	db := tpch.Generate(0.002, 42)
	q, err := rxl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := viewtree.Build(q, db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	return tree, db
}

func TestGreedyCutsStarEdgesAndMergesOneEdges(t *testing.T) {
	tree, db := greedySetup(t, rxl.Query1Source)
	res, err := Greedy(ctx, db, tree, DefaultGreedyParams(true))
	if err != nil {
		t.Fatal(err)
	}
	chosen := make(map[int]bool)
	for _, e := range append(append([]int{}, res.Mandatory...), res.Optional...) {
		chosen[e] = true
	}
	for _, e := range tree.Edges {
		if e.Label() == viewtree.One && !chosen[e.Index] {
			t.Errorf("greedy left 1-labeled edge %d (%s→%s) uncontracted",
				e.Index, e.Parent.Tag, e.Child.Tag)
		}
		if e.Label() == viewtree.ZeroOrMore && chosen[e.Index] {
			t.Errorf("greedy contracted *-labeled edge %d (%s→%s)",
				e.Index, e.Parent.Tag, e.Child.Tag)
		}
	}
	// The resulting plan splits at the two '*' edges: three streams.
	if got := res.BestPlan(tree).NumStreams(); got != 3 {
		t.Errorf("best plan has %d streams, want 3", got)
	}
}

func TestGreedyQuery2(t *testing.T) {
	tree, db := greedySetup(t, rxl.Query2Source)
	res, err := Greedy(ctx, db, tree, DefaultGreedyParams(true))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.BestPlan(tree).NumStreams(); got != 3 {
		t.Errorf("best plan has %d streams, want 3 (supplier group, part group, order group)", got)
	}
}

func TestGreedyEstimateRequestEconomy(t *testing.T) {
	// §5.1: the search needs far fewer estimate requests than the
	// O(|E|²) = 81 worst case thanks to per-query cost caching. The paper
	// measured 22 (non-reduced) and 25 (reduced).
	for _, reduce := range []bool{false, true} {
		tree, db := greedySetup(t, rxl.Query1Source)
		db.ResetEstimateRequests()
		res, err := Greedy(ctx, db, tree, DefaultGreedyParams(reduce))
		if err != nil {
			t.Fatal(err)
		}
		if res.Requests >= 81 {
			t.Errorf("reduce=%v: %d estimate requests, want < 81", reduce, res.Requests)
		}
		if res.Requests < 10 {
			t.Errorf("reduce=%v: %d requests is implausibly few", reduce, res.Requests)
		}
	}
}

func TestGreedyParallelismInvariant(t *testing.T) {
	// The parallel candidate evaluation must not change what the search
	// selects, nor the §5.1 request count: the singleflight cache sends
	// each distinct candidate query to the oracle exactly once at any
	// worker count.
	for _, reduce := range []bool{false, true} {
		tree, db := greedySetup(t, rxl.Query1Source)
		serialPrm := DefaultGreedyParams(reduce)
		serialPrm.Parallelism = 1
		serial, err := Greedy(ctx, db, tree, serialPrm)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{2, 8} {
			prm := DefaultGreedyParams(reduce)
			prm.Parallelism = par
			got, err := Greedy(ctx, db, tree, prm)
			if err != nil {
				t.Fatal(err)
			}
			if !equalInts(got.Mandatory, serial.Mandatory) || !equalInts(got.Optional, serial.Optional) {
				t.Errorf("reduce=%v par=%d: edges diverge: mandatory %v/%v optional %v/%v",
					reduce, par, got.Mandatory, serial.Mandatory, got.Optional, serial.Optional)
			}
			if got.Requests != serial.Requests {
				t.Errorf("reduce=%v par=%d: %d estimate requests, serial made %d",
					reduce, par, got.Requests, serial.Requests)
			}
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestGreedyPlanFamilyEnumeration(t *testing.T) {
	tree, db := greedySetup(t, rxl.Query1Source)
	prm := DefaultGreedyParams(true)
	// Raise the mandatory threshold so the marginal shallow merges fall
	// into the optional band, reproducing the mandatory+optional structure
	// of Fig. 18. (The test database is SF 0.002; relative costs scale
	// with data size.)
	prm.T1 = -40_000
	res, err := Greedy(ctx, db, tree, prm)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Optional) == 0 {
		t.Fatal("widened T2 produced no optional edges")
	}
	plans := res.Plans(tree)
	if len(plans) != 1<<uint(len(res.Optional)) {
		t.Fatalf("family size = %d, want 2^%d", len(plans), len(res.Optional))
	}
	// Every family member keeps all mandatory edges.
	for _, p := range plans {
		for _, e := range res.Mandatory {
			if !p.Keep[e] {
				t.Fatal("family member drops a mandatory edge")
			}
		}
	}
}

func TestGreedyPlansProduceCorrectXML(t *testing.T) {
	tree, db := greedySetup(t, rxl.Query1Source)
	reference, _ := runPlan(t, db, Unified(tree, false))
	res, err := Greedy(ctx, db, tree, DefaultGreedyParams(true))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := Execute(ctx, wire.Local(db), res.BestPlan(tree), &buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != reference {
		t.Error("greedy plan document differs from unified reference")
	}
}

func TestGreedyBestPlanBeatsExtremes(t *testing.T) {
	// The headline claim: the greedy plan's execution is faster than both
	// the unified outer-union and the fully partitioned plan. At Config-A
	// scale the fully partitioned plan is genuinely competitive (the
	// paper's own Fig. 13(a) shows the same), so measure at a scale where
	// the separation is robust, and allow a noise margin.
	if testing.Short() {
		t.Skip("wall-clock comparison in -short mode")
	}
	db := tpch.Generate(0.005, 42)
	q, err := rxl.Parse(rxl.Query1Source)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := viewtree.Build(q, db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Greedy(ctx, db, tree, DefaultGreedyParams(true))
	if err != nil {
		t.Fatal(err)
	}
	timeOf := func(p *Plan) float64 {
		var best float64
		for i := 0; i < 3; i++ {
			var buf bytes.Buffer
			m, err := Execute(ctx, wire.Local(db), p, &buf)
			if err != nil {
				t.Fatal(err)
			}
			if sec := m.TotalTime.Seconds(); i == 0 || sec < best {
				best = sec
			}
		}
		return best
	}
	greedy := timeOf(res.BestPlan(tree))
	outerUnion := timeOf(UnifiedOuterUnion(tree, true))
	parted := timeOf(FullyPartitioned(tree))
	const margin = 1.15 // tolerate scheduler noise
	if greedy > margin*outerUnion {
		t.Errorf("greedy (%.3fs) not faster than outer-union (%.3fs)", greedy, outerUnion)
	}
	if greedy > margin*parted {
		t.Errorf("greedy (%.3fs) not faster than fully partitioned (%.3fs)", greedy, parted)
	}
}
