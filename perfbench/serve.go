package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"silkroute"
	"silkroute/internal/obs"
	"silkroute/internal/plan"
	"silkroute/internal/tagger"
	"silkroute/internal/value"
	"silkroute/internal/viewsvc"
	"silkroute/internal/viewtree"
	"silkroute/internal/wire"
)

const (
	// serveScale sizes the database the two shards split.
	serveScale = 0.004
	// openLoad is the open loop's offered rate as a share of the
	// throughput the saturation phase measured just before it, about 25
	// req/s at the seed commit on a 2-vCPU VM. A fixed 25 req/s let the
	// host's steal time swing the open loop's utilization: over ten seeds
	// its p50 spread by 32% (interquartile range over the median) and one
	// run at 9% steal more than doubled it.
	openLoad = 0.5
	// openShare is the share of the timed phase given to the open loop; the
	// rest is the closed-loop saturation phase.
	openShare = 0.7
	// maxLagMS is the generator lateness (p99) beyond which the open loop
	// no longer offered its schedule and the run is invalid.
	maxLagMS = 100.0
	// requestTimeout fails a request that has not completed by then.
	requestTimeout = 10 * time.Second
	// serveTraceOps is how many requests the traced replay runs.
	serveTraceOps = 60
)

// serveSharded serves 75 per-nation views over HTTP from a backend of two
// Supplier shards, each behind its own in-process wire server.
type serveSharded struct {
	seed    int64
	callers int
	db      *silkroute.DB // unsharded, for the references
	addrs   [2]string
	stopDB  context.CancelFunc
	dbDone  sync.WaitGroup
	remote  *silkroute.Remote
	names   []string
	fams    []string
	srcs    []string
	handles []*silkroute.Handle
	httpSrv *http.Server
	httpWG  sync.WaitGroup
	base    string
	client  *http.Client
	warm    [][]byte // set-up bodies, checked once the references exist
	refs    [][]byte
	// corrupt, when set, alters each served body before it is checked; the
	// benchmark's own test uses it to prove the check fires.
	corrupt func([]byte)
}

// newServeSharded partitions the data, starts both wire servers and the
// HTTP service, compiles the views and requests each once, which fills the
// plan cache.
func newServeSharded(ctx context.Context, seed int64) (workload, error) {
	obs.Enable() // as the silkrouted daemon does
	s := &serveSharded{seed: seed, callers: runtime.NumCPU(), db: silkroute.OpenTPCH(serveScale, seed)}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	dctx, stop := context.WithCancel(context.Background())
	s.stopDB = stop
	for i := range s.addrs {
		part, err := s.db.Partition("Supplier", i, len(s.addrs))
		if err != nil {
			return nil, err
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		s.addrs[i] = l.Addr().String()
		s.dbDone.Add(1)
		go func() {
			defer s.dbDone.Done()
			_ = part.ServeContext(dctx, l) // ends when stopDB is called; errors surface as failed requests
		}()
	}
	var err error
	s.remote, err = silkroute.Dial(silkroute.Sharded(silkroute.Single(s.addrs[0]), silkroute.Single(s.addrs[1])),
		silkroute.WithSource(silkroute.TPCHSourceDescription()))
	if err != nil {
		return nil, err
	}
	reg := viewsvc.NewRegistry()
	for n := 0; n < nations; n++ {
		for _, f := range families {
			name := fmt.Sprintf("%s-n%02d", f.name, n)
			src := nationVariant(f.src, n)
			h, err := viewsvc.Compile(name, s.remote, src, silkroute.WithPlanCache())
			if err != nil {
				return nil, err
			}
			reg.Register(name, h, src, "perfbench")
			s.names = append(s.names, name)
			s.fams = append(s.fams, f.name)
			s.srcs = append(s.srcs, src)
			s.handles = append(s.handles, h)
		}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.base = "http://" + l.Addr().String()
	s.httpSrv = &http.Server{Handler: viewsvc.New(viewsvc.Config{Registry: reg}).Handler()}
	s.httpWG.Add(1)
	go func() {
		defer s.httpWG.Done()
		_ = s.httpSrv.Serve(l) // returns ErrServerClosed on close
	}()
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     s.callers,
		MaxIdleConnsPerHost: s.callers,
		DisableCompression:  true,
	}}
	for _, name := range s.names {
		body, status, _, err := s.get(ctx, name)
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("warm-up %s: HTTP %d", name, status)
		}
		s.warm = append(s.warm, body)
	}
	ok = true
	return s, nil
}

func (s *serveSharded) close() {
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	if s.httpSrv != nil {
		s.httpSrv.Close()
		s.httpWG.Wait()
	}
	if s.remote != nil {
		s.remote.Close()
	}
	if s.stopDB != nil {
		s.stopDB()
		s.dbDone.Wait()
	}
}

// ensureRefs makes each view's reference — the unsharded local document —
// and checks the set-up bodies against them.
func (s *serveSharded) ensureRefs(ctx context.Context) (mismatched int64, err error) {
	if s.refs != nil {
		return 0, nil
	}
	for i, src := range s.srcs {
		v, err := silkroute.ParseView(s.db, src)
		if err != nil {
			return 0, err
		}
		var buf bytes.Buffer
		if _, err := v.Materialize(ctx, &buf, silkroute.FullyPartitioned); err != nil {
			return 0, fmt.Errorf("reference %s: %w", s.names[i], err)
		}
		s.refs = append(s.refs, buf.Bytes())
		if !bytes.Equal(s.warm[i], buf.Bytes()) {
			mismatched++
		}
	}
	return mismatched, nil
}

// get requests one view, returning its body, status and the time to the
// first body byte.
func (s *serveSharded) get(ctx context.Context, name string) (body []byte, status int, ttfb time.Duration, err error) {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/views/"+name, nil)
	if err != nil {
		return nil, 0, 0, err
	}
	start := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, 0, 0, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	first := make([]byte, 1)
	if _, err := io.ReadFull(resp.Body, first); err != nil {
		return nil, resp.StatusCode, 0, err
	}
	ttfb = time.Since(start)
	buf.Write(first)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, resp.StatusCode, ttfb, err
	}
	return buf.Bytes(), resp.StatusCode, ttfb, nil
}

// record adds one request's outcome to t and reports whether it was a
// correct document. Callers serialize access.
func (s *serveSharded) record(t *tally, view int, body []byte, status int, err error) bool {
	t.attempted++
	t.httpAttempts++
	switch {
	case err != nil:
		t.failed++
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
		t.refused++
		t.failed++
	case status != http.StatusOK:
		t.failed++
	default:
		if s.corrupt != nil {
			s.corrupt(body)
		}
		if !bytes.Equal(body, s.refs[view]) {
			t.mismatched++
			break
		}
		t.allDocs++
		return true
	}
	return false
}

// viewPicks is the seeded uniform view popularity: rounds in which every
// view is requested once, each round in its own seeded order. Whole rounds
// keep the mix of cheap and expensive views the same from run to run.
func (s *serveSharded) viewPicks(stream int64) func() int {
	rng := rand.New(rand.NewSource(s.seed*1000 + stream))
	var round []int
	return func() int {
		if len(round) == 0 {
			round = rng.Perm(len(s.names))
		}
		v := round[0]
		round = round[1:]
		return v
	}
}

// measure runs the saturation phase, whose throughput is docs_per_s, then
// the open loop at openLoad of that throughput, whose latencies are timed
// from each request's due time.
func (s *serveSharded) measure(ctx context.Context, d time.Duration) (*tally, error) {
	t := newTally()
	m, err := s.ensureRefs(ctx)
	if err != nil {
		return nil, err
	}
	t.mismatched += m
	clk := startClock()
	t.elapsed = time.Duration(float64(d) * (1 - openShare))
	s.saturate(ctx, t, t.elapsed)
	if t.rate = openLoad * t.docsPerSec(); t.rate <= 0 {
		t.invalid = "the saturation phase completed no document"
		return t, nil
	}
	s.openLoop(ctx, t, d-time.Since(clk.start), t.rate)
	if lag := t.lagP99MS(); lag > maxLagMS {
		t.invalid = fmt.Sprintf("open-loop generator p99 lateness %.1f ms > %.0f ms", lag, maxLagMS)
	}
	clk.finish(t)
	return t, nil
}

// request is one open-loop arrival.
type request struct {
	due  time.Time
	view int
}

// openLoop offers Poisson arrivals at rate per second for d from one
// generator goroutine, served by s.callers workers, each holding one
// connection.
func (s *serveSharded) openLoop(ctx context.Context, t *tally, d time.Duration, rate float64) {
	rng := rand.New(rand.NewSource(s.seed))
	pick := s.viewPicks(0)
	n := int(rate*d.Seconds()*3) + 64
	// Sized well past the expected arrival count so the generator never
	// blocks on a backlog: queueing shows as latency, not as lateness.
	queue := make(chan request, n)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < s.callers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range queue {
				body, status, _, err := s.get(ctx, s.names[r.view])
				ms := float64(time.Since(r.due)) / 1e6
				mu.Lock()
				if s.record(t, r.view, body, status, err) {
					t.latMS = append(t.latMS, ms)
					t.byFamily[s.fams[r.view]] = append(t.byFamily[s.fams[r.view]], ms)
				} else {
					t.latMS = append(t.latMS, math.Inf(1))
				}
				mu.Unlock()
			}
		}()
	}
	start := time.Now()
	due := start
	for sent := 0; sent < n; sent++ {
		due = due.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
		if due.Sub(start) > d {
			break
		}
		time.Sleep(time.Until(due))
		t.lagMS = append(t.lagMS, float64(time.Since(due))/1e6)
		queue <- request{due: due, view: pick()}
	}
	close(queue)
	wg.Wait()
}

// saturate runs s.callers closed-loop callers for d, recording when each
// correct document completed.
func (s *serveSharded) saturate(ctx context.Context, t *tally, d time.Duration) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(d)
	for c := 0; c < s.callers; c++ {
		pick := s.viewPicks(int64(c) + 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				v := pick()
				body, status, _, err := s.get(ctx, s.names[v])
				mu.Lock()
				if s.record(t, v, body, status, err) {
					t.done = append(t.done, time.Since(start))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

// trace replays the open loop's first view picks one request at a time.
// Each document's trace holds the HTTP request, a back-to-back
// Handle.Materialize of the same view, and a decomposition of the wire path
// through the layers: Plan.Streams, then per stream QueryResumable on a
// shard set of its own and a full drain, the same SQL drained directly
// from each shard, and finally the tagger over the drained rows.
func (s *serveSharded) trace(ctx context.Context, tr *tracer, lm *layerMetrics) error {
	m, err := s.ensureRefs(ctx)
	if err != nil {
		return err
	}
	lm.mismatched += m
	direct := []*wire.Client{wire.Dial(s.addrs[0]), wire.Dial(s.addrs[1])}
	set := wire.NewShardSet([]wire.Backend{direct[0], direct[1]})
	defer set.Close()

	// The plan cache stands in for planning on this path, so plans are made
	// once per view, untraced.
	trees := make([]*viewtree.Tree, len(s.srcs))
	plans := make([]*plan.Plan, len(s.srcs))
	pick := s.viewPicks(0)
	replay := make([]int, serveTraceOps)
	for i := range replay {
		replay[i] = pick()
	}
	for _, v := range replay {
		if plans[v] != nil {
			continue
		}
		if trees[v], err = buildTree(s.srcs[v]); err != nil {
			return err
		}
		res, err := plan.Greedy(ctx, plan.RemoteOracle{Client: set}, trees[v], plan.DefaultGreedyParams(true))
		if err != nil {
			return err
		}
		plans[v] = res.BestPlan(trees[v])
		plans[v].Wrapper = wrapper
	}

	om := obs.M()
	served := newTally()
	var hits, dials, retries, planCached int64
	var wireBytes, wireRows int64
	for _, v := range replay {
		root := tr.root("doc", true)
		h0, d0, r0 := om.Client.PoolHits.Value(), om.Client.Dials.Value(), om.Client.Retries.Value()
		sp := tr.start("viewsvc.http")
		body, status, ttfb, err := s.get(ctx, s.names[v])
		tr.stop(sp)
		httpNS := tr.spans[sp].dur()
		hits += om.Client.PoolHits.Value() - h0
		dials += om.Client.Dials.Value() - d0
		retries += om.Client.Retries.Value() - r0
		s.record(served, v, body, status, err)
		lm.add("viewsvc.ttfb_ms", float64(ttfb)/1e6)

		sp = tr.start("viewsvc.materialize")
		rep, err := s.handles[v].Materialize(ctx, io.Discard)
		tr.stop(sp)
		if err != nil {
			tr.stop(root)
			return err
		}
		lm.add("viewsvc.overhead_ms", float64(httpNS-tr.spans[sp].dur())/1e6)
		if rep.PlanCached {
			planCached++
		}

		doc, nb, nr, err := s.tracedWire(ctx, tr, lm, set, direct, trees[v], plans[v])
		tr.stop(root)
		if err != nil {
			return err
		}
		wireBytes += nb
		wireRows += nr
		if !bytes.Equal(doc, s.refs[v]) {
			lm.mismatched++
		}
	}
	lm.mismatched += served.mismatched + served.failed
	n := float64(len(replay))
	lm.set("plancache.hit_ratio", float64(planCached)/n)
	lm.set("wire.pool_hit_ratio", ratio(float64(hits), float64(hits+dials)))
	lm.set("wire.retries", float64(retries)/n)
	lm.set("wire.bytes_per_row", ratio(float64(wireBytes), float64(wireRows)))
	lm.note("wire path: the traced replay drains each stream fully before tagging; production interleaves drain and tag")
	lm.note("wire.shard_merge_ms = shard-set open+drain minus the slowest direct per-shard open+drain of the same SQL")
	return nil
}

// tracedWire materializes one document through the wire layers, returning
// it with the payload bytes and rows the shard set delivered.
func (s *serveSharded) tracedWire(ctx context.Context, tr *tracer, lm *layerMetrics, set *wire.ShardSet, direct []*wire.Client, tree *viewtree.Tree, p *plan.Plan) ([]byte, int64, int64, error) {
	streams, err := tracedStreams(tr, p)
	if err != nil {
		return nil, 0, 0, err
	}
	// The resume contracts the shard merge keys on; StreamSpecs generates
	// the SQL a second time, so it is the benchmark's span, not sqlgen's.
	sp := tr.start("bench.stream_specs")
	specs, err := p.StreamSpecs()
	tr.stop(sp)
	if err != nil {
		return nil, 0, 0, err
	}
	var nBytes, nRows int64
	inputs := make([]tagger.Input, len(streams))
	for i, st := range streams {
		sql := st.SQL()
		open := tr.start("wire.open")
		rows, err := set.QueryResumable(ctx, sql, specs[i].Wire())
		tr.stop(open)
		if err != nil {
			return nil, 0, 0, err
		}
		drain := tr.start("wire.drain")
		data, err := drainRows(rows)
		tr.stop(drain)
		if err != nil {
			return nil, 0, 0, err
		}
		for _, ss := range rows.ShardStats() {
			nBytes += ss.Bytes
		}
		nRows += rows.RowCount
		merged := tr.spans[drain].End - tr.spans[open].Start
		var slowest int64
		for _, c := range direct {
			sp := tr.start("bench.shard_direct")
			r, err := c.Query(ctx, sql)
			if err == nil {
				_, err = drainRows(r)
			}
			tr.stop(sp)
			if err != nil {
				return nil, 0, 0, err
			}
			slowest = max(slowest, tr.spans[sp].dur())
		}
		lm.add("wire.shard_merge_ms", float64(merged-slowest)/1e6)
		inputs[i] = tagger.Input{Meta: st, Rows: &tagger.SliceSource{RowsData: data}}
	}
	doc, err := tracedTag(tr, lm, tree, inputs)
	return doc, nBytes, nRows, err
}

// drainRows reads a wire stream to its end.
func drainRows(r *wire.Rows) ([][]value.Value, error) {
	defer r.Close()
	var out [][]value.Value
	for {
		row, err := r.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
}
