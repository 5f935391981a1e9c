// Package plan represents, executes, and searches over the execution plans
// of a view tree. A plan is a subset of the tree's edges (plus a reduction
// flag and a SQL-generation style); executing a plan submits one SQL query
// per connected component, merges the resulting tuple streams, and tags
// the XML document.
//
// The package provides the paper's three families of machinery:
//
//   - named default plans: unified outer-join, unified outer-union, and
//     fully partitioned;
//   - the exhaustive enumerator used by §4's experiments (all 2^|E| plans);
//   - the greedy genPlan algorithm of §5, which uses the target database's
//     cost estimates to select mandatory and optional edges.
package plan

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"silkroute/internal/obs"
	"silkroute/internal/sqlast"
	"silkroute/internal/sqlgen"
	"silkroute/internal/tagger"
	"silkroute/internal/value"
	"silkroute/internal/viewtree"
	"silkroute/internal/wire"
)

// Plan identifies one execution strategy for a view tree.
type Plan struct {
	Tree   *viewtree.Tree
	Keep   []bool // kept edges, indexed like Tree.Edges
	Reduce bool   // apply view-tree reduction (§3.5)
	Style  sqlgen.Style
	// Wrapper is the document element wrapped around the output; the
	// constructors default it to "document", and "" emits a bare element
	// sequence.
	Wrapper string
	// Unordered runs the [9]-style unordered strategy the paper's §6
	// discusses: the structural ORDER BY is stripped from every query (no
	// server-side sorts) and the tagger assembles the document in memory.
	// Only usable when the document fits in client memory.
	Unordered bool
	// Parallelism bounds how many of the plan's streams Execute opens
	// concurrently. <=0 opens every stream at once (one request per stream,
	// as the paper's client held one result set open per query); 1 opens
	// them inline, in stream order; n runs n workers. Partitioned plans are
	// embarrassingly parallel on the server side — each component query
	// touches disjoint work. The document is identical at every setting.
	Parallelism int
	// FragmentBoundary, when set, is forwarded to the tagger's OnTopLevel
	// hook: it fires just before each top-level element opens, with all
	// earlier bytes already flushed to the output writer. The fragment
	// cache uses it to split cached documents at exact element boundaries.
	// Ignored on the unordered path, which has no streaming boundaries.
	FragmentBoundary func()
}

// Unified returns the plan keeping every edge: one SQL query.
func Unified(t *viewtree.Tree, reduce bool) *Plan {
	return &Plan{Tree: t, Keep: t.AllEdges(), Reduce: reduce, Style: sqlgen.OuterJoin, Wrapper: "document"}
}

// UnifiedOuterUnion returns the sorted outer-union comparator plan of [9].
func UnifiedOuterUnion(t *viewtree.Tree, reduce bool) *Plan {
	return &Plan{Tree: t, Keep: t.AllEdges(), Reduce: reduce, Style: sqlgen.OuterUnion, Wrapper: "document"}
}

// FullyPartitioned returns the plan cutting every edge: one SQL query per
// view-tree node.
func FullyPartitioned(t *viewtree.Tree) *Plan {
	return &Plan{Tree: t, Keep: t.NoEdges(), Style: sqlgen.OuterJoin, Wrapper: "document"}
}

// FromBits builds a plan from an edge bitmask (bit i keeps Tree.Edges[i]).
func FromBits(t *viewtree.Tree, bits uint64, reduce bool) *Plan {
	return &Plan{Tree: t, Keep: t.KeepFromBits(bits), Reduce: reduce, Style: sqlgen.OuterJoin, Wrapper: "document"}
}

// KeptEdges counts the kept edges.
func (p *Plan) KeptEdges() int {
	n := 0
	for _, k := range p.Keep {
		if k {
			n++
		}
	}
	return n
}

// NumStreams returns the number of tuple streams (SQL queries) the plan
// produces: one per connected component.
func (p *Plan) NumStreams() int {
	return len(p.Tree.Nodes) - p.KeptEdges()
}

// Streams partitions the view tree and generates the plan's SQL queries.
func (p *Plan) Streams() ([]*sqlgen.Stream, error) {
	comps, err := p.Tree.Partition(p.Keep, p.Reduce)
	if err != nil {
		return nil, err
	}
	streams, err := sqlgen.Generate(p.Tree, comps, p.Style)
	if err != nil {
		return nil, err
	}
	if p.Unordered {
		for _, s := range streams {
			s.StripOrder()
		}
	}
	return streams, nil
}

// BaseTables returns the sorted, lower-cased names of every stored relation
// the plan's streams read — the dependency set the fragment cache's write
// invalidation keys on.
func (p *Plan) BaseTables() ([]string, error) {
	streams, err := p.Streams()
	if err != nil {
		return nil, err
	}
	seen := make(map[string]struct{})
	for _, s := range streams {
		for _, t := range sqlast.BaseTables(s.Query) {
			seen[t] = struct{}{}
		}
	}
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out, nil
}

// Metrics reports one plan execution's measurements, mirroring the paper's
// two reported times: query-only time (until every stream has produced its
// first tuple — dominated by server-side execution and sorting) and total
// time (until the last tuple has been read and tagged). Every backend
// reports them with the same meaning.
type Metrics struct {
	Streams int
	// QueryTime is the summed per-stream open time: submit until the
	// stream is positioned before its first tuple. It does not shrink
	// with Parallelism, so parallel runs stay comparable with the
	// published serial numbers.
	QueryTime time.Duration
	// QueryWallTime is the elapsed wall clock of the open phase — the
	// paper's query-only series. With Parallelism 1 it equals QueryTime
	// (plus scheduling noise); with more workers it is what shrinks.
	QueryWallTime time.Duration
	TotalTime     time.Duration
	Rows          int64 // total tuples transferred across all streams
	Bytes         int64 // total payload bytes transferred (zero on a local backend)
	// PerStream breaks the totals down by tuple stream, in stream order —
	// the per-stream skew the aggregate times hide is exactly what the
	// greedy planner exploits, so executions report it.
	PerStream []StreamMetrics
}

// StreamMetrics is one tuple stream's share of a plan execution.
type StreamMetrics struct {
	// SQL is the stream's generated query text.
	SQL string
	// Rows counts the tuples this stream delivered.
	Rows int64
	// Bytes counts the payload bytes transferred (zero on a local
	// backend).
	Bytes int64
	// QueryTime is the stream's open time: submit until the stream is
	// positioned before its first tuple.
	QueryTime time.Duration
	// WallTime runs from the start of the execution through the last row
	// drained into the tagger, so it is never below the run's
	// QueryWallTime.
	WallTime time.Duration
	// Retries counts wire attempts beyond the first (always zero on a
	// local backend).
	Retries int
	// Resumes counts mid-stream resumes: the stream died after delivering
	// rows and was spliced back together from its last sort key (wire
	// execution with resume enabled; always zero otherwise).
	Resumes int
	// Restarts counts full re-executions of the stream after its resume
	// budget ran out — the plan-level degradation that re-fetches just
	// this stream from the top and fast-forwards past the delivered
	// prefix.
	Restarts int
	// Failovers counts cross-replica failovers: the stream's frontier
	// suffix was re-issued on a different replica after same-replica
	// resume gave up (replica-set execution only; always zero otherwise).
	Failovers int
	// Replica is the index of the replica that finished serving the
	// stream within the replica set (0 for single-backend execution).
	Replica int
	// Shards breaks the stream down by shard for scatter-gather
	// execution: rows/bytes contributed and recovery machinery burned per
	// partition, summed across plan-level restarts. Nil when the backend
	// is not sharded.
	Shards []wire.ShardStat
}

// StreamSpec is one tuple stream's resume contract: its SQL text, the
// output positions of its structural sort key, and the rewrite that turns
// a boundary key into the stream's suffix query. The wire client consumes
// it (via Wire) to splice a died stream back together mid-flight.
type StreamSpec struct {
	// SQL is the stream's full generated query.
	SQL string
	// SortKey holds the output-row positions of the structural sort key in
	// ORDER BY order; nil when the stream is unordered (not resumable).
	SortKey []int
	stream  *sqlgen.Stream
}

func newStreamSpec(s *sqlgen.Stream) *StreamSpec {
	return &StreamSpec{SQL: s.SQL(), SortKey: s.SortKey(), stream: s}
}

// Resumable reports whether the stream can be resumed mid-flight: it must
// still carry its structural sort order.
func (sp *StreamSpec) Resumable() bool { return sp.stream.Resumable() }

// Wire returns the wire-client resume spec, or nil when the stream is not
// resumable.
func (sp *StreamSpec) Wire() *wire.ResumeSpec {
	if !sp.Resumable() {
		return nil
	}
	return &wire.ResumeSpec{KeyCols: sp.SortKey, Rewrite: sp.stream.ResumeSQL}
}

// StreamSpecs generates the plan's streams and returns their resume
// contracts, in stream order.
func (p *Plan) StreamSpecs() ([]*StreamSpec, error) {
	streams, err := p.Streams()
	if err != nil {
		return nil, err
	}
	specs := make([]*StreamSpec, len(streams))
	for i, s := range streams {
		specs[i] = newStreamSpec(s)
	}
	return specs, nil
}

// writeDoc dispatches between the sorted constant-space merge and the
// unordered in-memory assembly.
func writeDoc(tg *tagger.Tagger, w io.Writer, inputs []tagger.Input, unordered bool) error {
	if unordered {
		return tg.WriteXMLUnordered(w, inputs)
	}
	return tg.WriteXML(w, inputs)
}

// wireSource adapts a wire row stream to a tagger source and remembers
// when the stream finished draining, for the per-stream wall time. When
// restartsLeft is positive it also provides the plan-level degradation
// path: a stream lost beyond the wire client's resume budget is
// re-executed from the top and fast-forwarded past the rows already
// handed to the tagger, so one exhausted stream doesn't fail the whole
// document.
type wireSource struct {
	ctx    context.Context
	client wire.Backend
	sql    string
	spec   *wire.ResumeSpec
	rows   *wire.Rows
	start  time.Time
	wall   time.Duration // set once the stream reaches EOF

	restartsLeft int
	delivered    int64 // rows handed to the tagger so far
	// Totals carried over from streams replaced by restarts; the final
	// metrics fold these with the live stream's counters.
	prevRows, prevBytes int64
	prevResumes         int
	prevFailovers       int
	prevShards          []wire.ShardStat
	restarts            int
}

func (s *wireSource) Next() ([]value.Value, bool, error) {
	for {
		row, err := s.rows.Next()
		if err == io.EOF {
			s.wall = time.Since(s.start)
			return nil, false, nil
		}
		if err != nil {
			if s.restartsLeft > 0 && errors.Is(err, wire.ErrStreamLost) && s.ctx.Err() == nil {
				if rerr := s.restart(); rerr == nil {
					continue
				}
				// Restart failed too: surface the original typed loss.
			}
			return nil, false, err
		}
		s.delivered++
		return row, true, nil
	}
}

// addShardStats folds a live stream's per-shard breakdown into the totals
// carried over from restarted predecessors, element-wise by shard index;
// Replica reflects the most recent execution.
func addShardStats(prev, cur []wire.ShardStat) []wire.ShardStat {
	if prev == nil {
		return cur
	}
	for i := range prev {
		if i >= len(cur) {
			break
		}
		prev[i].Rows += cur[i].Rows
		prev[i].Bytes += cur[i].Bytes
		prev[i].Resumes += cur[i].Resumes
		prev[i].Failovers += cur[i].Failovers
		prev[i].Replica = cur[i].Replica
	}
	return prev
}

// restart replaces the lost stream with a fresh execution of the same
// query (resume re-armed with a full budget) and skips the prefix already
// delivered to the tagger. The skipped rows cross the wire again and so
// stay counted in the transfer totals.
func (s *wireSource) restart() error {
	s.restartsLeft--
	s.restarts++
	s.prevRows += s.rows.RowCount
	s.prevBytes += s.rows.BytesRead
	s.prevResumes += s.rows.Resumes
	s.prevFailovers += s.rows.Failovers
	s.prevShards = addShardStats(s.prevShards, s.rows.ShardStats())
	s.rows.Close()
	nr, err := s.client.QueryResumable(s.ctx, s.sql, s.spec)
	if err != nil {
		return err
	}
	for i := int64(0); i < s.delivered; i++ {
		if _, err := nr.Next(); err != nil {
			nr.Close()
			return err
		}
	}
	s.rows = nr
	return nil
}

// Execute runs the plan against a backend — an in-process database
// (wire.Local), a wire client, a replica set, or a shard set — and writes
// the XML document to w. The plan's streams are opened under
// p.Parallelism workers (see Plan), then the tagger merges them. Results
// are collected by stream index, so the document is byte-identical at
// every parallelism level and on every backend.
//
// QueryTime is the summed per-stream open time, QueryWallTime the elapsed
// open phase, and TotalTime runs until the document is written.
//
// ctx governs the whole run. Cancelling it interrupts the run promptly —
// inside a local query's executor loops, on a stream stalled on the
// network, or while tagging — releases every connection back to the
// backend (abandoned streams are closed, not pooled), and returns an
// error satisfying errors.Is(err, ctx.Err()).
func Execute(ctx context.Context, b wire.Backend, p *Plan, w io.Writer) (Metrics, error) {
	streams, err := p.Streams()
	if err != nil {
		return Metrics{}, err
	}
	ctx, span := obs.StartSpan(ctx, "plan.execute")
	defer span.End()
	start := time.Now()
	m := Metrics{Streams: len(streams), PerStream: make([]StreamMetrics, len(streams))}

	// With resume enabled on the backend, every ordered stream is opened
	// with its resume contract, and one plan-level restart per stream backs
	// up the wire-level budget (graceful degradation). A sharded backend
	// needs the contract even with resume off: the scatter-gather merge
	// keys on the same structural sort columns.
	wspecs := make([]*wire.ResumeSpec, len(streams))
	restarts := 0
	sharded := false
	if sh, ok := b.(interface{ Shards() int }); ok && sh.Shards() > 1 {
		sharded = true
	}
	if b.MaxResumes() > 0 || sharded {
		for i, s := range streams {
			wspecs[i] = newStreamSpec(s).Wire()
		}
	}
	if b.MaxResumes() > 0 {
		restarts = 1
	}

	opened := make([]*wire.Rows, len(streams))
	errs := make([]error, len(streams))
	for i, s := range streams {
		m.PerStream[i].SQL = s.SQL()
	}
	par := p.Parallelism
	if par <= 0 {
		par = len(streams)
	}
	forEach(len(streams), par, func(i int) {
		qs := time.Now()
		opened[i], errs[i] = b.QueryResumable(ctx, m.PerStream[i].SQL, wspecs[i])
		m.PerStream[i].QueryTime = time.Since(qs)
	})
	m.QueryWallTime = time.Since(start)

	sources := make([]*wireSource, len(streams))
	for i, rows := range opened {
		m.QueryTime += m.PerStream[i].QueryTime
		if rows != nil {
			m.PerStream[i].Retries = rows.Attempts - 1
			sources[i] = &wireSource{
				ctx: ctx, client: b, sql: m.PerStream[i].SQL, spec: wspecs[i],
				rows: rows, start: start, restartsLeft: restarts,
			}
		}
	}

	// Every opened stream is released on every exit path; Rows.Close is
	// idempotent, so streams already closed at EOF are fine. Sources hold
	// the live Rows (a restart may have replaced the originally opened one).
	defer func() {
		for _, s := range sources {
			if s != nil {
				s.rows.Close()
			}
		}
	}()

	inputs := make([]tagger.Input, len(streams))
	for i, err := range errs {
		if err != nil {
			return Metrics{}, fmt.Errorf("plan: stream %d: %w", i, err)
		}
		inputs[i] = tagger.Input{Meta: streams[i], Rows: sources[i]}
	}
	tg := tagger.New(p.Tree)
	tg.Wrapper = p.Wrapper
	tg.OnTopLevel = p.FragmentBoundary
	if err := writeDoc(tg, w, inputs, p.Unordered); err != nil {
		return Metrics{}, err
	}
	m.TotalTime = time.Since(start)
	for i, s := range sources {
		rows := s.prevRows + s.rows.RowCount
		bytes := s.prevBytes + s.rows.BytesRead
		m.Rows += rows
		m.Bytes += bytes
		m.PerStream[i].Rows = rows
		m.PerStream[i].Bytes = bytes
		m.PerStream[i].Resumes = s.prevResumes + s.rows.Resumes
		m.PerStream[i].Restarts = s.restarts
		m.PerStream[i].Failovers = s.prevFailovers + s.rows.Failovers
		m.PerStream[i].Replica = s.rows.Replica
		m.PerStream[i].Shards = addShardStats(s.prevShards, s.rows.ShardStats())
		if w := s.wall; w > 0 {
			m.PerStream[i].WallTime = w
		} else {
			m.PerStream[i].WallTime = m.TotalTime
		}
	}
	return m, nil
}

// forEach calls fn(i) for every i in [0, n) under at most workers
// goroutines; workers <= 1 runs inline, in index order.
func forEach(n, workers int, fn func(i int)) {
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < min(workers, n); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Enumerate calls fn for every one of the 2^|E| plans of the tree, in
// bitmask order. It is the driver behind the exhaustive experiments of §4.
func Enumerate(t *viewtree.Tree, reduce bool, fn func(bits uint64, p *Plan) error) error {
	if len(t.Edges) > 30 {
		return fmt.Errorf("plan: refusing to enumerate 2^%d plans", len(t.Edges))
	}
	for bits := uint64(0); bits < 1<<uint(len(t.Edges)); bits++ {
		if err := fn(bits, FromBits(t, bits, reduce)); err != nil {
			return err
		}
	}
	return nil
}
