package wire

import (
	"context"
	"io"

	"silkroute/internal/engine"
	"silkroute/internal/value"
)

// Local returns a Backend over an in-process database: the same seam the
// remote shapes implement, with no connection and no serialization. Query
// runs the SQL text through db.ExecuteContext (so the database's query log
// and metrics see local runs exactly as they see served ones) and hands
// back a Rows that drains the engine's result directly; BytesRead stays 0.
// Estimate asks the engine's optimizer, StatsEpoch reads its write epoch,
// and there is nothing to resume, so MaxResumes is 0.
//
// It is an adapter rather than a method set on engine.Database because
// this package already imports engine.
func Local(db *engine.Database) Backend { return localBackend{db: db} }

type localBackend struct{ db *engine.Database }

func (l localBackend) Query(ctx context.Context, sql string) (*Rows, error) {
	return l.QueryResumable(ctx, sql, nil)
}

// QueryResumable ignores the spec: an in-process stream cannot die
// mid-flight.
func (l localBackend) QueryResumable(ctx context.Context, sql string, _ *ResumeSpec) (*Rows, error) {
	res, err := l.db.ExecuteContext(ctx, sql)
	if err != nil {
		return nil, err
	}
	return &Rows{Columns: res.Columns, Attempts: 1, ctx: ctx, local: res}, nil
}

func (l localBackend) Estimate(ctx context.Context, sql string) (engine.Estimate, error) {
	if err := ctx.Err(); err != nil {
		return engine.Estimate{}, err
	}
	return l.db.EstimateSQL(sql)
}

func (l localBackend) StatsEpoch(context.Context) (int64, error) { return l.db.StatsEpoch(), nil }

func (localBackend) MaxResumes() int { return 0 }
func (localBackend) IdleConns() int  { return 0 }
func (localBackend) Close() error    { return nil }

// localCheckRows is the row granularity of context checks while a local
// stream drains, so cancellation also interrupts the tagging phase after
// the query itself has finished.
const localCheckRows = 4096

// nextLocal serves Rows.Next for a stream opened by Local.
func (r *Rows) nextLocal() ([]value.Value, error) {
	if r.done {
		return nil, io.EOF
	}
	if r.RowCount&(localCheckRows-1) == 0 {
		if err := r.ctx.Err(); err != nil {
			return nil, err
		}
	}
	row, ok := r.local.Next()
	if !ok {
		r.done = true
		return nil, io.EOF
	}
	r.RowCount++
	return row, nil
}
