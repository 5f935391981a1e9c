package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"silkroute"
	"silkroute/internal/engine"
	"silkroute/internal/obs"
	"silkroute/internal/plan"
	"silkroute/internal/table"
	"silkroute/internal/tpch"
	"silkroute/internal/value"
	"silkroute/internal/viewtree"
)

const (
	// churnScale sizes the database: the 25 per-nation Query 2 documents
	// total about 2.5 MB, the largest about 210 KB.
	churnScale = 0.004
	// churnBudget is the fragment cache's byte budget, about half the
	// working set, so the Zipf tail evicts.
	churnBudget = 1_250_000
	// churnDataSeed fixes the TPC-H data; --seed drives the operations.
	// With 40 suppliers over 25 nations, each per-nation document's size
	// swings with the data seed, and with it the hit ratio and the cost of
	// every miss: across seeds that moved the end-to-end figures by 16-20%
	// (interquartile range over the median), against 5-9% with fixed data.
	churnDataSeed = 1
	// churnZipfS is the Zipf exponent of view popularity.
	churnZipfS = 1.1
	// churnWriteEvery spaces the Supplier inserts: one operation in 50 is a
	// write, and every insert invalidates every view. Fixed spacing keeps
	// the write count, and so the refill work, the same in every run.
	churnWriteEvery = 50
	// churnTraceOps is how many operations the traced replay runs.
	churnTraceOps = 300
	// firstNewSupplier is above any generated Supplier key; inserted rows
	// take keys from it.
	firstNewSupplier = 1_000_000
)

// cacheChurn reads 25 per-nation Query 2 views with Zipf popularity through
// the plan and fragment caches, interleaved with Supplier inserts.
type cacheChurn struct {
	db       *silkroute.DB
	views    []*silkroute.View // cached, served
	refViews []*silkroute.View // uncached, for the references
	ops      *churnOps
	// natWrites counts the inserts per nation: a view's document depends
	// only on its own nation's suppliers, so (view, natWrites[view]) names
	// its current version.
	natWrites [nations]int
	refs      map[[2]int][]byte
}

// churnOp is one read (view) or one Supplier insert.
type churnOp struct {
	write  bool
	view   int // read: the view, which is also its nation
	nation int // write: the new supplier's nation
	key    int64
	addr   string
}

// churnOps is the seeded operation sequence. View i has popularity rank i.
type churnOps struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	n    int // operations issued
}

func newChurnOps(seed int64) *churnOps {
	rng := rand.New(rand.NewSource(seed))
	return &churnOps{rng: rng, zipf: rand.NewZipf(rng, churnZipfS, 1, nations-1)}
}

func (o *churnOps) op() churnOp {
	o.n++
	if o.n%churnWriteEvery == 0 {
		return churnOp{write: true, nation: o.rng.Intn(nations), key: firstNewSupplier + int64(o.n),
			addr: fmt.Sprintf("%d Churn Street, Suite %d", o.rng.Intn(9000)+100, o.rng.Intn(900)+1)}
	}
	return churnOp{view: int(o.zipf.Uint64())}
}

func (op churnOp) supplierName() string { return fmt.Sprintf("Supplier#%09d", op.key) }

// newCacheChurn generates the data, compiles the cached views and reads
// each once, which fills the plan cache and the fragment cache.
func newCacheChurn(ctx context.Context, seed int64) (workload, error) {
	c := &cacheChurn{db: silkroute.OpenTPCH(churnScale, churnDataSeed), ops: newChurnOps(seed), refs: map[[2]int][]byte{}}
	for _, src := range workloadSources("cache-churn") {
		v, err := silkroute.ParseView(c.db, src, silkroute.WithPlanCache(), silkroute.WithFragmentCache(churnBudget))
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if _, err := v.Materialize(ctx, &buf, silkroute.Greedy); err != nil {
			return nil, err
		}
		c.views = append(c.views, v)
	}
	return c, nil
}

func (c *cacheChurn) close() {}

// ref returns the view's reference document at its current version, made
// by an uncached view the first time that version is read.
func (c *cacheChurn) ref(ctx context.Context, view int) ([]byte, error) {
	key := [2]int{view, c.natWrites[view]}
	if doc, ok := c.refs[key]; ok {
		return doc, nil
	}
	if c.refViews == nil {
		for _, src := range workloadSources("cache-churn") {
			v, err := silkroute.ParseView(c.db, src)
			if err != nil {
				return nil, err
			}
			c.refViews = append(c.refViews, v)
		}
	}
	var buf bytes.Buffer
	if _, err := c.refViews[view].Materialize(ctx, &buf, silkroute.FullyPartitioned); err != nil {
		return nil, fmt.Errorf("reference view %d: %w", view, err)
	}
	c.refs[key] = buf.Bytes()
	return buf.Bytes(), nil
}

// write inserts the op's Supplier row through the facade.
func (c *cacheChurn) write(op churnOp) error {
	err := c.db.Insert("Supplier", op.key, op.supplierName(), op.addr, op.nation)
	if err == nil {
		c.natWrites[op.nation]++
	}
	return err
}

func (c *cacheChurn) measure(ctx context.Context, d time.Duration) (*tally, error) {
	t := newTally()
	var buf bytes.Buffer
	clk := startClock()
	for clk.elapsed() < d {
		op := c.ops.op()
		if op.write {
			start := time.Now()
			err := c.write(op)
			t.writeUS = append(t.writeUS, float64(time.Since(start))/1e3)
			if err != nil {
				return nil, fmt.Errorf("insert: %w", err)
			}
			continue
		}
		var want []byte
		if err := clk.offClock(func() (err error) { want, err = c.ref(ctx, op.view); return err }); err != nil {
			return nil, err
		}
		buf.Reset()
		start := time.Now()
		rep, err := c.views[op.view].Materialize(ctx, &buf, silkroute.Greedy)
		ms := float64(time.Since(start)) / 1e6
		t.attempted++
		t.reads++
		switch {
		case err != nil:
			fmt.Printf("# error: view %d: %v\n", op.view, err)
			t.failed++
			t.latMS = append(t.latMS, math.Inf(1))
		case !bytes.Equal(buf.Bytes(), want):
			t.mismatched++
			t.latMS = append(t.latMS, math.Inf(1))
		default:
			t.done = append(t.done, clk.elapsed())
			t.latMS = append(t.latMS, ms)
			if rep.FragmentCached {
				t.hits++
			}
		}
	}
	t.elapsed = clk.elapsed()
	t.allDocs = int64(len(t.done))
	clk.finish(t)
	return t, nil
}

// trace replays the first operations through the facade with the obs
// counters on. A read that misses the fragment cache is replayed again
// through the local layers on a shadow database that receives the same
// inserts, which splits the miss into planning, sqlexec and tagging.
func (c *cacheChurn) trace(ctx context.Context, tr *tracer, lm *layerMetrics) error {
	shadow := tpch.Generate(churnScale, churnDataSeed)
	trees := make([]*viewtree.Tree, nations)
	for i, src := range workloadSources("cache-churn") {
		var err error
		if trees[i], err = buildTree(src); err != nil {
			return err
		}
	}
	// plans mirrors the plan cache: one plan per view per write epoch.
	plans := map[[2]int]*plan.Plan{}
	writes := 0

	m := obs.NewMetrics()
	obs.SetGlobal(m)
	defer obs.SetGlobal(nil)
	var buf bytes.Buffer
	reads, hits, misses, planHits := 0, 0, 0, 0
	for i := 0; i < churnTraceOps; i++ {
		op := c.ops.op()
		if op.write {
			root := tr.root("write", false)
			sp := tr.start("table.insert")
			err := c.write(op)
			tr.stop(sp)
			if err == nil {
				sp = tr.start("bench.shadow_insert")
				err = shadowInsert(shadow, op)
				tr.stop(sp)
			}
			tr.stop(root)
			if err != nil {
				return err
			}
			writes++
			continue
		}
		want, err := c.ref(ctx, op.view)
		if err != nil {
			return err
		}
		reads++
		root := tr.root("doc", true)
		buf.Reset()
		sp := tr.start("fragcache.read")
		rep, err := c.views[op.view].Materialize(ctx, &buf, silkroute.Greedy)
		tr.stop(sp)
		if err != nil {
			tr.stop(root)
			return err
		}
		if !bytes.Equal(buf.Bytes(), want) {
			lm.mismatched++
		}
		lm.add("fragcache.resident_mb", float64(m.Cache.FragmentBytes.Value())/1e6)
		if rep.FragmentCached {
			hits++
			lm.add("fragcache.hit_us", float64(tr.spans[sp].dur())/1e3)
			tr.stop(root)
			continue
		}
		misses++
		if rep.PlanCached {
			planHits++
		}
		rsp := tr.start("bench.miss_replay")
		key := [2]int{op.view, writes}
		p := plans[key]
		if p == nil {
			if p, err = tracedPlan(ctx, tr, lm, shadow, trees[op.view], silkroute.Greedy); err != nil {
				return err
			}
			p.Wrapper = wrapper
			plans[key] = p
		}
		doc, err := tracedLocal(ctx, tr, lm, shadow, trees[op.view], p)
		tr.stop(rsp)
		tr.stop(root)
		if err != nil {
			return err
		}
		if !bytes.Equal(doc, want) {
			lm.mismatched++
		}
	}
	lm.set("fragcache.hit_ratio", ratio(float64(hits), float64(reads)))
	lm.set("plancache.hit_ratio", ratio(float64(planHits), float64(misses)))
	lm.set("fragcache.evictions_per_1k", 1000*float64(m.Cache.FragmentEvictions.Value())/float64(reads))
	lm.set("fragcache.invalidations_per_1k", 1000*float64(m.Cache.FragmentInvalidations.Value())/float64(reads))
	lm.note("cache-churn: %d reads (%d fragment hits), %d writes; misses replayed on a shadow database", reads, hits, writes)
	return nil
}

// shadowInsert applies a write to the shadow engine database.
func shadowInsert(db *engine.Database, op churnOp) error {
	t, err := db.Table("Supplier")
	if err != nil {
		return err
	}
	return t.Insert(table.Row{value.Int(op.key), value.String(op.supplierName()), value.String(op.addr), value.Int(int64(op.nation))})
}
