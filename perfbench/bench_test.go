package main

import (
	"context"
	"testing"
	"time"
)

// TestMismatchFires flips one byte of every served document and checks
// that the byte comparison catches it and the run reports incorrect.
func TestMismatchFires(t *testing.T) {
	ctx := context.Background()
	w, err := newServeSharded(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	s := w.(*serveSharded)
	s.corrupt = func(b []byte) { b[len(b)/2] ^= 1 }
	tl, err := s.measure(ctx, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if tl.mismatched == 0 || tl.mismatched != tl.attempted {
		t.Fatalf("%d of %d corrupted documents caught", tl.mismatched, tl.attempted)
	}
	if res := tl.result(0); res.Correct || res.Failed != tl.attempted {
		t.Fatalf("result = correct %v, failed %d of %d; want incorrect with every request failed", res.Correct, res.Failed, res.Attempted)
	}
}

// TestSeedDeterminism checks that the single-caller workloads replay the
// same operations for a seed, so their traced counts repeat exactly.
func TestSeedDeterminism(t *testing.T) {
	counts := []string{
		"plan.estimate_calls", "sqlexec.rows_out", "tagger.xml_bytes",
		"fragcache.hit_ratio", "fragcache.evictions_per_1k", "fragcache.invalidations_per_1k",
	}
	for _, name := range []string{"cold-local", "cache-churn"} {
		t.Run(name, func(t *testing.T) {
			var runs [2]map[string]metric
			for i := range runs {
				ctx := context.Background()
				w, err := workloads[name](ctx, 7)
				if err != nil {
					t.Fatal(err)
				}
				lm := newLayerMetrics()
				if err := w.trace(ctx, newTracer(), lm); err != nil {
					t.Fatal(err)
				}
				w.close()
				if lm.mismatched != 0 {
					t.Fatalf("run %d: %d traced documents mismatched", i, lm.mismatched)
				}
				runs[i] = lm.metrics()
			}
			for _, c := range counts {
				if runs[0][c] != runs[1][c] {
					t.Errorf("%s: %v then %v", c, runs[0][c].Value, runs[1][c].Value)
				}
			}
			if runs[0]["tagger.xml_bytes"].Value == 0 {
				t.Error("no documents traced")
			}
		})
	}
}

// TestOperationSequences checks that a seed fixes each workload's
// operation sequence and that another seed changes it.
func TestOperationSequences(t *testing.T) {
	a, b, c := coldOps(3), coldOps(3), coldOps(4)
	differs := false
	for i := 0; i < 90; i++ {
		x, y, z := a(), b(), c()
		if x != y {
			t.Fatalf("cold-local op %d: %v then %v", i, x, y)
		}
		differs = differs || x != z
	}
	if !differs {
		t.Error("cold-local: seeds 3 and 4 gave the same sequence")
	}
	p, q, r := newChurnOps(3), newChurnOps(3), newChurnOps(4)
	differs = false
	for i := 0; i < 1000; i++ {
		x, y, z := p.op(), q.op(), r.op()
		if x != y {
			t.Fatalf("cache-churn op %d: %v then %v", i, x, y)
		}
		differs = differs || x != z
	}
	if !differs {
		t.Error("cache-churn: seeds 3 and 4 gave the same sequence")
	}
}
