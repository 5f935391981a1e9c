package plan

import (
	"bytes"
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"silkroute/internal/rxl"
	"silkroute/internal/sqlgen"
	"silkroute/internal/tpch"
	"silkroute/internal/wire"
)

var errCut = errors.New("injected stream cut")

// killEachTextOnce returns a wire.Server RowFault that kills each distinct
// query text's stream once, after `at` rows. A resumed continuation carries
// different SQL, so it gets its own kill; an identical retry passes.
func killEachTextOnce(at int64) func(string) func(int64) error {
	var mu sync.Mutex
	killed := make(map[string]bool)
	return func(sql string) func(int64) error {
		mu.Lock()
		defer mu.Unlock()
		if killed[sql] {
			return nil
		}
		killed[sql] = true
		return func(i int64) error {
			if i >= at {
				return errCut
			}
			return nil
		}
	}
}

// chaosClient wires a client to a server with the given RowFault over
// in-memory pipes.
func chaosClient(t *testing.T, srv *wire.Server, opts ...wire.ClientOption) *wire.Client {
	t.Helper()
	client := wire.NewClient(func(context.Context) (net.Conn, error) {
		c1, c2 := net.Pipe()
		go srv.ServeConn(c2)
		return c1, nil
	}, opts...)
	t.Cleanup(func() { client.Close() })
	return client
}

// TestWireResumeEquivalence is the end-to-end robustness property at the
// plan layer: with every stream killed mid-flight once, wire execution with
// resume enabled produces a document byte-identical to the fault-free
// direct execution, for every plan family.
func TestWireResumeEquivalence(t *testing.T) {
	db := tpch.Generate(0.0004, 11)
	for _, src := range []struct {
		name   string
		source string
	}{
		{"Fragment", rxl.FragmentSource},
		{"Q1", rxl.Query1Source},
	} {
		tree := buildTree(t, db, src.source)
		plans := []struct {
			name string
			p    *Plan
		}{
			{"unified-outer-union", UnifiedOuterUnion(tree, false)},
			{"fully-partitioned", FullyPartitioned(tree)},
			{"mixed-bits", FromBits(tree, 0b101010101, false)},
		}
		for _, tp := range plans {
			var want bytes.Buffer
			if _, err := Execute(ctx, wire.Local(db), tp.p, &want); err != nil {
				t.Fatalf("%s/%s direct: %v", src.name, tp.name, err)
			}

			srv := &wire.Server{DB: db, RowFault: killEachTextOnce(2)}
			client := chaosClient(t, srv,
				wire.WithResume(wire.Resume{MaxResumes: 8}),
				wire.WithRetry(wire.Retry{BaseDelay: time.Millisecond}))
			var got bytes.Buffer
			m, err := Execute(ctx, client, tp.p, &got)
			if err != nil {
				t.Fatalf("%s/%s wire with faults: %v", src.name, tp.name, err)
			}
			if !bytes.Equal(want.Bytes(), got.Bytes()) {
				t.Errorf("%s/%s: document differs from fault-free run (lengths %d vs %d)",
					src.name, tp.name, got.Len(), want.Len())
			}
			resumes := 0
			for _, sm := range m.PerStream {
				resumes += sm.Resumes
			}
			if resumes == 0 {
				t.Errorf("%s/%s: no stream reported a resume despite injected cuts", src.name, tp.name)
			}
		}
	}
}

// TestWireRestartAfterResumeExhaustion exercises graceful degradation: when
// every continuation dies immediately and the resume budget runs out, the
// plan layer re-executes the stream from scratch once (the original query's
// kill is already spent), fast-forwards past the delivered prefix, and the
// document still comes out byte-identical.
func TestWireRestartAfterResumeExhaustion(t *testing.T) {
	db := tpch.Generate(0.0004, 11)
	tree := buildTree(t, db, rxl.FragmentSource)
	p := FullyPartitioned(tree)
	p.Style = sqlgen.OuterJoin

	var want bytes.Buffer
	if _, err := Execute(ctx, wire.Local(db), p, &want); err != nil {
		t.Fatal(err)
	}

	original := killEachTextOnce(3)
	fault := func(sql string) func(int64) error {
		if strings.Contains(sql, "rsm") {
			// Every continuation dies after re-sending one boundary row:
			// resumes make no progress and the budget exhausts.
			return func(i int64) error {
				if i >= 1 {
					return errCut
				}
				return nil
			}
		}
		return original(sql)
	}
	srv := &wire.Server{DB: db, RowFault: fault}
	client := chaosClient(t, srv,
		wire.WithResume(wire.Resume{MaxResumes: 2}),
		wire.WithRetry(wire.Retry{BaseDelay: time.Millisecond}))

	var got bytes.Buffer
	m, err := Execute(ctx, client, p, &got)
	if err != nil {
		t.Fatalf("wire with exhausted resumes: %v", err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Errorf("document differs from fault-free run (lengths %d vs %d)", got.Len(), want.Len())
	}
	restarts, resumes := 0, 0
	for _, sm := range m.PerStream {
		restarts += sm.Restarts
		resumes += sm.Resumes
	}
	if restarts == 0 {
		t.Error("no stream reported a plan-level restart")
	}
	if resumes == 0 {
		t.Error("no stream reported resume attempts before restarting")
	}
}

// TestWireStreamLostWithoutResume: with resume disabled, a mid-flight kill
// must fail the execution with the typed stream-lost error — never a
// silently truncated document.
func TestWireStreamLostWithoutResume(t *testing.T) {
	db := tpch.Generate(0.0004, 11)
	tree := buildTree(t, db, rxl.FragmentSource)
	p := FullyPartitioned(tree)

	srv := &wire.Server{DB: db, RowFault: killEachTextOnce(2)}
	client := chaosClient(t, srv)
	var got bytes.Buffer
	if _, err := Execute(ctx, client, p, &got); !errors.Is(err, wire.ErrStreamLost) {
		t.Fatalf("err = %v, want wire.ErrStreamLost", err)
	}
}
