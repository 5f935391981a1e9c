// Command perfbench is the repository benchmark. It drives one workload
// through the public surfaces users call — the facade's View.Materialize and
// DB.Insert, and the view service's HTTP handler — checks every document
// byte for byte, and prints the end-to-end metrics. With --trace 1 it
// replays the workload's seeded operations through the layers one call at a
// time and prints the per-layer metrics instead.
//
//	perfbench --workload cold-local --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Human-readable notes and
// the workload-specific figures go to the lines before it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// setupRuns is how many times a run sets its workload up; setup_s is the
// median, so a one-off stall does not move it.
const setupRuns = 3

// runSlices is how many equal slices of the throughput phase docs_per_s
// takes its median over, so that a host disturbance in part of a run moves
// it less.
const runSlices = 5

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one set of inputs driven through the program.
type workload interface {
	// measure runs the untraced timed phase for d and returns its tally.
	measure(ctx context.Context, d time.Duration) (*tally, error)
	// trace replays the workload's first seeded operations one layer call
	// at a time, recording spans into tr and counts into lm.
	trace(ctx context.Context, tr *tracer, lm *layerMetrics) error
	close()
}

// workloads maps each workload name to its constructor; the constructor is
// the timed set-up.
var workloads = map[string]func(ctx context.Context, seed int64) (workload, error){
	"cold-local":    newColdLocal,
	"serve-sharded": newServeSharded,
	"cache-churn":   newCacheChurn,
}

func main() {
	name := flag.String("workload", "", "workload: cold-local, serve-sharded or cache-churn")
	seed := flag.Int64("seed", 1, "seed of the inputs: TPC-H data (not cache-churn's), view orders, arrivals, Zipf draws, writes")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 = traced run: print per-layer metrics and write a span file")
	flag.Parse()

	if _, ok := workloads[*name]; !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload cold-local|serve-sharded|cache-churn --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	d := time.Duration(*seconds * float64(time.Second))
	ctx := context.Background()

	var res *result
	var err error
	if *trace == 0 {
		res, err = runUntraced(ctx, *name, *seed, d)
	} else {
		path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", *name, *seed))
		res, err = runTraced(ctx, *name, *seed, d, path)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: output mismatch or failed operations; see above")
		os.Exit(1)
	}
}

// setUp runs the workload's set-up setupRuns times and keeps the last one,
// returning it with the median set-up time in seconds.
func setUp(ctx context.Context, name string, seed int64) (workload, float64, error) {
	var times []float64
	var w workload
	for i := 0; i < setupRuns; i++ {
		if w != nil {
			w.close()
		}
		start := time.Now()
		var err error
		if w, err = workloads[name](ctx, seed); err != nil {
			return nil, 0, fmt.Errorf("%s set-up: %w", name, err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return w, median(times), nil
}

// runUntraced measures the end-to-end metrics.
func runUntraced(ctx context.Context, name string, seed int64, d time.Duration) (*result, error) {
	w, setup, err := setUp(ctx, name, seed)
	if err != nil {
		return nil, err
	}
	defer w.close()
	t, err := w.measure(ctx, d)
	if err != nil {
		return nil, err
	}
	if t.invalid != "" {
		return nil, fmt.Errorf("run invalid, not reported: %s", t.invalid)
	}
	t.printTable(os.Stdout, name, setup)
	return t.result(setup), nil
}

// result is the untraced run's output line: every end-to-end metric.
func (t *tally) result(setup float64) *result {
	return &result{
		Correct:   t.mismatched == 0 && t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed + t.mismatched,
		Metrics: map[string]metric{
			"setup_s":          {setup, "s"},
			"docs_per_s":       {t.docsPerSec(), "docs/s"},
			"latency_p50_ms":   {finite(percentile(t.latMS, 0.50)), "ms"},
			"latency_p90_ms":   {finite(percentile(t.latMS, 0.90)), "ms"},
			"alloc_mb_per_doc": {t.allocMBPerDoc(), "MB"},
			"cpu_ms_per_doc":   {t.cpuMSPerDoc(), "ms"},
			"heap_live_mb":     {t.heapLiveMB, "MB"},
		},
	}
}

// runTraced measures the per-layer metrics: the seeded operation replay
// with spans, then an untraced phase of half the run length whose
// throughput gives the tracing overhead.
func runTraced(ctx context.Context, name string, seed int64, d time.Duration, spanPath string) (*result, error) {
	lm := newLayerMetrics()
	tr := newTracer()
	if err := traceSetup(tr, name); err != nil {
		return nil, err
	}
	w, _, err := setUp(ctx, name, seed)
	if err != nil {
		return nil, err
	}
	defer w.close()
	if err := w.trace(ctx, tr, lm); err != nil {
		return nil, err
	}
	t, err := w.measure(ctx, d/2)
	if err != nil {
		return nil, err
	}
	if t.invalid != "" {
		return nil, fmt.Errorf("run invalid, not reported: %s", t.invalid)
	}
	if err := tr.check(); err != nil {
		return nil, err
	}
	if err := tr.writeFile(spanPath); err != nil {
		return nil, err
	}
	lm.addSpans(tr)
	lm.set("runtime.gc_cpu_share", t.gcShare())
	lm.set("bench.lag_p99_ms", t.lagP99MS())
	lm.set("viewsvc.refused_ratio", ratio(float64(t.refused), float64(t.httpAttempts)))
	traced := float64(tr.docs()) / tr.docWall().Seconds()
	lm.set("bench.tracing_overhead", 1-traced/t.docsPerSec())
	fmt.Printf("# %s traced run: %d docs traced at %.2f docs/s, untraced %.2f docs/s; spans in %s\n",
		name, tr.docs(), traced, t.docsPerSec(), spanPath)
	lm.printShares(os.Stdout, tr)
	for _, n := range lm.notes {
		fmt.Println("# note:", n)
	}
	return &result{
		Correct:   t.mismatched == 0 && t.failed == 0 && lm.mismatched == 0,
		Attempted: t.attempted + int64(tr.docs()),
		Failed:    t.failed + t.mismatched + lm.mismatched,
		Metrics:   lm.metrics(),
	}, nil
}

// tally is the outcome of one timed phase.
type tally struct {
	attempted, failed, mismatched, refused int64
	httpAttempts                           int64
	done                                   []time.Duration // on-clock completion time of each document counted for docs_per_s
	elapsed                                time.Duration   // on-clock length of the throughput phase
	allDocs                                int64           // correct documents of the whole phase
	round                                  int             // documents per round of fixed composition; 0 if none
	rate                                   float64         // open-loop offered rate, req/s; 0 if none
	latMS                                  []float64       // per read, in completion order; +Inf for a failed or refused one
	writeUS                                []float64
	byFamily                               map[string][]float64
	lagMS                                  []float64
	hits, reads                            int64
	use                                    usage // resources used on the clock
	heapLiveMB                             float64
	invalid                                string // why the run must not be reported
}

func newTally() *tally { return &tally{byFamily: map[string][]float64{}} }

// docsPerSec is the median throughput over runSlices equal slices of the
// throughput phase. A workload whose operations come in rounds of fixed
// composition takes the median over its complete rounds instead, so that
// every unit holds the same work.
func (t *tally) docsPerSec() float64 {
	if t.round > 0 && len(t.done) >= t.round {
		var rates []float64
		prev := time.Duration(0)
		for i := t.round - 1; i < len(t.done); i += t.round {
			rates = append(rates, float64(t.round)/(t.done[i]-prev).Seconds())
			prev = t.done[i]
		}
		return median(rates)
	}
	slice := t.elapsed / runSlices
	counts := make([]float64, runSlices)
	for _, at := range t.done {
		if i := int(at / slice); i < runSlices {
			counts[i]++
		}
	}
	for i := range counts {
		counts[i] /= slice.Seconds()
	}
	return median(counts)
}

// cpuMSPerDoc is the CPU time the kernel charged the whole process over the
// timed phase, per document. Unlike wall time it leaves out time the host
// took the virtual CPUs away (steal).
func (t *tally) cpuMSPerDoc() float64 {
	return t.use.procCPU * 1e3 / math.Max(1, float64(t.allDocs))
}

func (t *tally) allocMBPerDoc() float64 {
	return float64(t.use.alloc) / 1e6 / math.Max(1, float64(t.allDocs))
}

func (t *tally) gcShare() float64 { return ratio(t.use.gcCPU, t.use.totalCPU) }

func (t *tally) lagP99MS() float64 {
	if len(t.lagMS) == 0 {
		return 0
	}
	return percentile(t.lagMS, 0.99)
}

// printTable prints every end-to-end figure of the workload by name with
// its unit, including the workload-specific ones the JSON line leaves out.
func (t *tally) printTable(f *os.File, name string, setup float64) {
	fmt.Fprintf(f, "# %s: %d attempted, %d failed, %d refused, %d mismatched, %d latency samples; throughput phase %.2fs\n",
		name, t.attempted, t.failed, t.refused, t.mismatched, len(t.latMS), t.elapsed.Seconds())
	row := func(n string, v float64, unit string) { fmt.Fprintf(f, "# %-18s %12.4f %s\n", n, v, unit) }
	row("setup_s", setup, "s")
	row("docs_per_s", t.docsPerSec(), "docs/s")
	row("latency_p50_ms", percentile(t.latMS, 0.50), "ms")
	row("latency_p90_ms", percentile(t.latMS, 0.90), "ms")
	row("latency_p99_ms", percentile(t.latMS, 0.99), "ms")
	fams := make([]string, 0, len(t.byFamily))
	for fam := range t.byFamily {
		fams = append(fams, fam)
	}
	sort.Strings(fams)
	for _, fam := range fams {
		row(fam+"_p50_ms", percentile(t.byFamily[fam], 0.50), "ms")
	}
	if len(t.writeUS) > 0 {
		row("write_p50_us", percentile(t.writeUS, 0.50), "us")
	}
	if t.reads > 0 {
		row("hit_ratio", ratio(float64(t.hits), float64(t.reads)), "ratio")
	}
	row("error_ratio", ratio(float64(t.failed+t.mismatched), float64(t.attempted)), "ratio")
	row("alloc_mb_per_doc", t.allocMBPerDoc(), "MB")
	row("cpu_ms_per_doc", t.cpuMSPerDoc(), "ms")
	row("heap_live_mb", t.heapLiveMB, "MB")
	row("gc_cpu_share", t.gcShare(), "ratio")
	if len(t.lagMS) > 0 {
		row("offered_rate", t.rate, "req/s")
		row("lag_p99_ms", t.lagP99MS(), "ms")
	}
}

// percentile returns the nearest-rank q-quantile of xs (+Inf entries sort
// last); 0 for an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// finite maps +Inf — a percentile that landed on a failed request — to the
// largest float so the JSON line stays encodable; such a run also reports
// correct=false.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
