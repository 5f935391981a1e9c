package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"silkroute/internal/rxl"
	"silkroute/internal/tpch"
	"silkroute/internal/viewtree"
)

// selfTimeTolerance is how far the summed self times of one trace may stray
// from its root span's wall time, as a share of that wall time. Spans are
// recorded from one goroutine and children nest inside their parents, so
// the sum is exact up to clock reads; a larger gap means overlapping or
// escaped spans and fails the run.
const selfTimeTolerance = 0.01

// span is one call into a layer, as the benchmark saw it from outside.
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a trace's root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine: every traced replay runs a single caller, so the open span on
// top of the stack is the parent of the next one.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int // indices into spans of the open spans
	trace int
	nDocs int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// root opens a new trace; doc says whether it produces a document (the
// throughput and per-doc denominators count only those).
func (tr *tracer) root(name string, doc bool) int {
	tr.trace++
	if doc {
		tr.nDocs++
	}
	return tr.start(name)
}

// start opens a span under the innermost open span.
func (tr *tracer) start(name string) int {
	parent := 0
	if n := len(tr.stack); n > 0 {
		parent = tr.spans[tr.stack[n-1]].ID
	}
	tr.spans = append(tr.spans, span{
		Trace: tr.trace, ID: len(tr.spans) + 1, Parent: parent, Name: name,
		Start: int64(time.Since(tr.t0)),
	})
	i := len(tr.spans) - 1
	tr.stack = append(tr.stack, i)
	return i
}

// stop closes span i, which must be the innermost open span.
func (tr *tracer) stop(i int) {
	tr.spans[i].End = int64(time.Since(tr.t0))
	if n := len(tr.stack); n == 0 || tr.stack[n-1] != i {
		panic("perfbench: spans closed out of order")
	}
	tr.stack = tr.stack[:len(tr.stack)-1]
}

func (tr *tracer) docs() int { return tr.nDocs }

// docWall is the summed wall time of the document traces.
func (tr *tracer) docWall() time.Duration {
	var ns int64
	for _, s := range tr.spans {
		if s.Parent == 0 && s.Name == "doc" {
			ns += s.dur()
		}
	}
	return time.Duration(ns)
}

// selfTimes returns each span's duration minus the part of it that its
// children cover, indexed like tr.spans.
func (tr *tracer) selfTimes() []int64 {
	children := make(map[int][]span)
	for _, s := range tr.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(tr.spans))
	for i, s := range tr.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// check verifies that each trace's self times sum to its root's wall time
// within selfTimeTolerance.
func (tr *tracer) check() error {
	self := tr.selfTimes()
	sum := map[int]int64{}
	wall := map[int]int64{}
	for i, s := range tr.spans {
		sum[s.Trace] += self[i]
		if s.Parent == 0 {
			wall[s.Trace] += s.dur()
		}
	}
	for id, w := range wall {
		if gap := sum[id] - w; float64(abs(gap)) > selfTimeTolerance*float64(w)+1e3 {
			return fmt.Errorf("trace %d: self times sum to %dns, wall time %dns", id, sum[id], w)
		}
	}
	return nil
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// writeFile writes every span as one JSON array.
func (tr *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(tr.spans); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// traceSetup times rxl.Parse and viewtree.Build for each source view the
// workload compiles, one trace per view.
func traceSetup(tr *tracer, workload string) error {
	sch := tpch.Schema()
	for _, src := range workloadSources(workload) {
		r := tr.root("setup.view", false)
		sp := tr.start("rxl.parse")
		q, err := rxl.Parse(src)
		tr.stop(sp)
		if err != nil {
			return err
		}
		sp = tr.start("viewtree.build")
		_, err = viewtree.Build(q, sch)
		tr.stop(sp)
		tr.stop(r)
		if err != nil {
			return err
		}
	}
	return nil
}

// spanMetrics maps a span name to the per-layer metric of its self time and
// the metric's scale from nanoseconds.
var spanMetrics = map[string]struct {
	metric string
	perNS  float64
}{
	"rxl.parse":       {"rxl.parse_ms", 1e-6},
	"viewtree.build":  {"viewtree.build_ms", 1e-6},
	"plan.greedy":     {"plan.greedy_ms", 1e-6},
	"engine.estimate": {"engine.estimate_ms", 1e-6},
	"sqlgen.streams":  {"sqlgen.streams_ms", 1e-6},
	"sqlexec.exec":    {"sqlexec.exec_ms", 1e-6},
	"tagger.tag":      {"tagger.tag_ms", 1e-6},
	"wire.open":       {"wire.open_ms", 1e-6},
	"wire.drain":      {"wire.drain_ms", 1e-6},
	"table.insert":    {"table.insert_us", 1e-3},
}

// perLayer lists every per-layer metric the traced run prints, with its
// unit. A layer that does no work in a workload reports 0.
var perLayer = []struct{ name, unit string }{
	{"rxl.parse_ms", "ms"}, {"viewtree.build_ms", "ms"},
	{"plan.greedy_ms", "ms"}, {"plan.estimate_calls", "count"}, {"engine.estimate_ms", "ms"},
	{"plancache.hit_ratio", "ratio"},
	{"sqlgen.streams_ms", "ms"},
	{"sqlexec.exec_ms", "ms"}, {"sqlexec.rows_out", "count"}, {"sqlexec.examined_per_row", "ratio"},
	{"sqlexec.rows_sorted", "count"}, {"sqlexec.spill_runs", "count"},
	{"tagger.tag_ms", "ms"}, {"tagger.alloc_mb", "MB"}, {"tagger.xml_bytes", "bytes"},
	{"wire.open_ms", "ms"}, {"wire.drain_ms", "ms"}, {"wire.bytes_per_row", "bytes"},
	{"wire.shard_merge_ms", "ms"}, {"wire.pool_hit_ratio", "ratio"}, {"wire.retries", "count"},
	{"viewsvc.ttfb_ms", "ms"}, {"viewsvc.overhead_ms", "ms"}, {"viewsvc.refused_ratio", "ratio"},
	{"fragcache.hit_ratio", "ratio"}, {"fragcache.hit_us", "us"},
	{"fragcache.evictions_per_1k", "count"}, {"fragcache.invalidations_per_1k", "count"},
	{"fragcache.resident_mb", "MB"},
	{"table.insert_us", "us"},
	{"runtime.gc_cpu_share", "ratio"},
	{"bench.lag_p99_ms", "ms"}, {"bench.tracing_overhead", "ratio"},
}

// layerMetrics collects the traced run's per-layer figures. Means are per
// occurrence: add records one sample (per doc, per stream, per run, as the
// metric defines) and the metric is the mean of its samples.
type layerMetrics struct {
	sum, n     map[string]float64
	fixed      map[string]float64
	mismatched int64
	notes      []string
}

func newLayerMetrics() *layerMetrics {
	return &layerMetrics{sum: map[string]float64{}, n: map[string]float64{}, fixed: map[string]float64{}}
}

func (lm *layerMetrics) add(name string, v float64) { lm.sum[name] += v; lm.n[name]++ }

func (lm *layerMetrics) set(name string, v float64) { lm.fixed[name] = v }

func (lm *layerMetrics) note(format string, args ...any) {
	lm.notes = append(lm.notes, fmt.Sprintf(format, args...))
}

// addSpans adds each span-timed layer's self time, one sample per trace
// that entered the layer.
func (lm *layerMetrics) addSpans(tr *tracer) {
	self := tr.selfTimes()
	perTrace := map[string]map[int]float64{}
	for i, s := range tr.spans {
		m, ok := spanMetrics[s.Name]
		if !ok {
			continue
		}
		if perTrace[m.metric] == nil {
			perTrace[m.metric] = map[int]float64{}
		}
		perTrace[m.metric][s.Trace] += float64(self[i]) * m.perNS
	}
	for name, traces := range perTrace {
		for _, v := range traces {
			lm.add(name, v)
		}
	}
}

func (lm *layerMetrics) value(name string) float64 {
	if v, ok := lm.fixed[name]; ok {
		return v
	}
	return ratio(lm.sum[name], lm.n[name])
}

func (lm *layerMetrics) metrics() map[string]metric {
	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = metric{lm.value(m.name), m.unit}
	}
	return out
}

// printShares prints each span name's share of the traced wall time —
// where a document's time goes, layer by layer — followed by the
// per-layer metrics.
func (lm *layerMetrics) printShares(w io.Writer, tr *tracer) {
	self := tr.selfTimes()
	setup := map[int]bool{}
	for _, s := range tr.spans {
		if s.Parent == 0 && s.Name == "setup.view" {
			setup[s.Trace] = true
		}
	}
	byName := map[string]int64{}
	var wall int64
	for i, s := range tr.spans {
		if setup[s.Trace] {
			continue
		}
		byName[s.Name] += self[i]
		if s.Parent == 0 {
			wall += s.dur()
		}
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return byName[names[a]] > byName[names[b]] })
	fmt.Fprintf(w, "# traced self-time shares (of %.1f ms traced wall):\n", float64(wall)/1e6)
	for _, n := range names {
		fmt.Fprintf(w, "#   %-22s %6.1f%%\n", n, 100*float64(byName[n])/float64(wall))
	}
	for _, m := range perLayer {
		fmt.Fprintf(w, "# %-31s %14.4f %s\n", m.name, lm.value(m.name), m.unit)
	}
}

// usage is the process's resource use at one instant.
type usage struct {
	alloc           uint64  // cumulative heap bytes allocated
	gcCPU, totalCPU float64 // runtime/metrics CPU seconds
	procCPU         float64 // user + system CPU seconds the kernel charged the process
}

var cpuSamples = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := make([]metrics.Sample, len(cpuSamples))
	for i, n := range cpuSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	proc := time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	return usage{alloc: ms.TotalAlloc, gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(), procCPU: proc}
}

func (u usage) sub(v usage) usage {
	return usage{alloc: u.alloc - v.alloc, gcCPU: u.gcCPU - v.gcCPU, totalCPU: u.totalCPU - v.totalCPU, procCPU: u.procCPU - v.procCPU}
}

func (u usage) add(v usage) usage {
	return usage{alloc: u.alloc + v.alloc, gcCPU: u.gcCPU + v.gcCPU, totalCPU: u.totalCPU + v.totalCPU, procCPU: u.procCPU + v.procCPU}
}

// clock measures a timed phase and excludes the off-clock work done inside
// it (reference documents), in time and in resources.
type clock struct {
	start   time.Time
	u0      usage
	off     usage
	offTime time.Duration
}

func startClock() *clock { return &clock{start: time.Now(), u0: readUsage()} }

// offClock runs fn and leaves its time and resources out of the phase.
func (c *clock) offClock(fn func() error) error {
	t0, u0 := time.Now(), readUsage()
	err := fn()
	c.off = c.off.add(readUsage().sub(u0))
	c.offTime += time.Since(t0)
	return err
}

// elapsed is the on-clock time so far.
func (c *clock) elapsed() time.Duration { return time.Since(c.start) - c.offTime }

// finish closes the phase into t: resources used on the clock, and the live
// heap after forced collections. The second collection also frees what the
// first moved into sync.Pool victim caches, so pooled buffers do not count.
func (c *clock) finish(t *tally) {
	t.use = readUsage().sub(c.u0).sub(c.off)
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.heapLiveMB = float64(ms.HeapAlloc) / 1e6
}
