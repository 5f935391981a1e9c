package plan

// Cancellation coverage for the plan executors: a canceled context must
// unwind both the in-process and the wire execution paths promptly, as
// errors.Is(err, context.Canceled), without leaking pooled connections.

import (
	"context"
	"errors"
	"io"
	"testing"
	"time"

	"silkroute/internal/engine"
	"silkroute/internal/rxl"
	"silkroute/internal/tpch"
	"silkroute/internal/viewtree"
	"silkroute/internal/wire"
)

// cancelAfterWriter cancels a context after the first n bytes of document
// output, so cancellation lands deterministically mid-stream.
type cancelAfterWriter struct {
	cancel context.CancelFunc
	left   int
}

func (w *cancelAfterWriter) Write(p []byte) (int, error) {
	if w.left > 0 {
		w.left -= len(p)
		if w.left <= 0 {
			w.cancel()
		}
	}
	return len(p), nil
}

// bigTree builds Query 1 over a TPC-H instance large enough that a plan's
// tuple streams cross the executor's context-poll granularity.
func bigTree(t *testing.T) (*engine.Database, *viewtree.Tree) {
	t.Helper()
	db := tpch.Generate(0.005, 7)
	q, err := rxl.Parse(rxl.Query1Source)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := viewtree.Build(q, db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	return db, tree
}

func TestExecuteDirectCancelMidStream(t *testing.T) {
	db, tree := bigTree(t)
	p := Unified(tree, true)

	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &cancelAfterWriter{cancel: cancel, left: 1 << 12}
	start := time.Now()
	_, err := Execute(cctx, wire.Local(db), p, w)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("local Execute completed despite mid-stream cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("local Execute cancel error = %v, want context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("cancellation took %v to unwind", elapsed)
	}
}

func TestExecuteDirectPreCanceled(t *testing.T) {
	db := fig8DB(t)
	tree := fragmentTree(t)
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Execute(cctx, wire.Local(db), Unified(tree, true), io.Discard); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-canceled local Execute = %v, want context.Canceled", err)
	}
}

func TestExecuteWireCancelReleasesPool(t *testing.T) {
	db, tree := bigTree(t)
	client := wire.InProcess(db)
	defer client.Close()
	p := Unified(tree, true)

	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &cancelAfterWriter{cancel: cancel, left: 1 << 12}
	start := time.Now()
	_, err := Execute(cctx, client, p, w)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("wire Execute completed despite mid-stream cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("wire Execute cancel error = %v, want context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("cancellation took %v to unwind", elapsed)
	}
	// A canceled stream's connection must be closed, not repooled.
	if n := client.IdleConns(); n != 0 {
		t.Errorf("IdleConns after cancel = %d, want 0", n)
	}

	// The same client still executes cleanly afterwards.
	if _, err := Execute(ctx, client, FromBits(tree, 0, true), io.Discard); err != nil {
		t.Errorf("post-cancel wire Execute: %v", err)
	}
}

func TestExecuteWirePreCanceled(t *testing.T) {
	db := fig8DB(t)
	tree := fragmentTree(t)
	client := wire.InProcess(db)
	defer client.Close()
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Execute(cctx, client, Unified(tree, true), io.Discard); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-canceled wire Execute = %v, want context.Canceled", err)
	}
	if n := client.IdleConns(); n != 0 {
		t.Errorf("IdleConns = %d, want 0", n)
	}
}

func TestGreedyHonorsCanceledContext(t *testing.T) {
	db := fig8DB(t)
	tree := fragmentTree(t)
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Greedy(cctx, db, tree, DefaultGreedyParams(true)); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-canceled Greedy = %v, want context.Canceled", err)
	}
}
