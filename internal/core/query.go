package core

import (
	"context"
	"errors"
	"fmt"

	"simcloud/internal/metric"
	"simcloud/internal/stats"
)

// QueryKind selects the similarity-query flavor a Query evaluates.
type QueryKind uint8

// Query kinds, mirroring the paper's query taxonomy (Section 4.2).
const (
	// KindRange is the precise range query R(q, r): every object within
	// Radius of Vec, exactly.
	KindRange QueryKind = iota + 1
	// KindKNN is the precise k-NN query: a first pass determines the
	// candidate radius ρk and a range query R(q, ρk) guarantees
	// completeness (at most two round trips on networked backends; with
	// stored distances the two never ship a candidate twice, and the first
	// often settles the query alone).
	KindKNN
	// KindApproxKNN is the approximate k-NN query: the K best of a
	// promise-ranked candidate set of CandSize objects.
	KindApproxKNN
	// KindFirstCell is the restricted 1-cell approximate k-NN of the
	// paper's Section 5.4 comparison: the single most promising Voronoi
	// cell is the whole candidate set.
	KindFirstCell
)

// String implements fmt.Stringer.
func (k QueryKind) String() string {
	switch k {
	case KindRange:
		return "range"
	case KindKNN:
		return "knn"
	case KindApproxKNN:
		return "approx-knn"
	case KindFirstCell:
		return "first-cell"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Query is one similarity query, uniform across every backend and kind.
// Exactly which fields matter depends on Kind:
//
//	KindRange      Vec, Radius
//	KindKNN        Vec, K, CandSize (phase-1 tuning; 0 = DefaultCandSize)
//	KindApproxKNN  Vec, K, CandSize (0 = DefaultCandSize), RefineLimit
//	KindFirstCell  Vec, K, RefineLimit
//
// Unused fields are ignored. A Query is a plain value — build it with a
// struct literal and pass it to any Searcher.
type Query struct {
	// Kind selects the query flavor.
	Kind QueryKind
	// Vec is the query object's descriptor.
	Vec metric.Vector
	// K is the number of nearest neighbors requested (all kinds but Range).
	K int
	// Radius is the range-query radius (KindRange only).
	Radius float64
	// CandSize is the candidate-set size of the approximate phase
	// (KindApproxKNN, and the phase-1 tuning knob of KindKNN). 0 picks
	// DefaultCandSize(K); it affects cost and — for KindApproxKNN —
	// recall, never correctness of KindKNN.
	CandSize int
	// RefineLimit caps client-side refinement at the most promising
	// RefineLimit candidates (Section 4.2's partial refinement;
	// KindApproxKNN and KindFirstCell on client-refining backends). 0
	// refines everything. The plain backend refines server-side and
	// ignores it.
	RefineLimit int
	// TargetRecall, when positive, asks the backend to choose the
	// candidate-set size per query so the expected recall hits this level
	// (KindApproxKNN, and the phase-1 tuning of KindKNN — where it trades
	// phase-2 work, never correctness). It must lie in (0, 1) and excludes
	// an explicit CandSize. A DirectClient with a fitted candidate-size
	// predictor (see DirectClient.SetPredictor) resolves it per query from
	// the query's nearest-pivot distance; without one, and on networked
	// backends, it falls back to DefaultCandSize.
	TargetRecall float64
}

// DefaultCandSize is the candidate-set size used when Query.CandSize is
// left 0: generous enough for high recall at moderate k (the paper's
// sweeps use 10–70 candidates per requested neighbor).
func DefaultCandSize(k int) int { return max(20*k, 100) }

// effCandSize resolves a normalized query's candidate-set size for backends
// without a per-query predictor: the explicit CandSize when set, else the
// global default (a TargetRecall query keeps CandSize 0 as the predictor
// sentinel — here it degrades to the default rather than failing).
func effCandSize(nq Query) int {
	if nq.CandSize > 0 {
		return nq.CandSize
	}
	return DefaultCandSize(nq.K)
}

// ErrBadQuery marks query-validation failures, so callers serving remote
// users (the gateway) can separate "the request was malformed" from "the
// backend failed" without matching error strings: errors.Is(err,
// ErrBadQuery), or the IsQueryError shorthand.
var ErrBadQuery = errors.New("invalid query")

// IsQueryError reports whether err is a query-validation failure.
func IsQueryError(err error) bool { return errors.Is(err, ErrBadQuery) }

func badQuery(format string, args ...any) error {
	return fmt.Errorf("core: "+format+": %w", append(args, ErrBadQuery)...)
}

// normalized validates the query and fills defaults; every backend calls it
// first, so the three implementations agree on what a well-formed Query is.
// All validation failures wrap ErrBadQuery.
func (q Query) normalized() (Query, error) {
	if len(q.Vec) == 0 {
		return q, badQuery("query vector is empty")
	}
	switch q.Kind {
	case KindRange:
		if !(q.Radius >= 0) { // a NaN radius too: it would bound nothing
			return q, badQuery("range radius must be a non-negative number, got %g", q.Radius)
		}
		if q.RefineLimit != 0 {
			return q, badQuery("RefineLimit applies to approximate queries only (kind %v)", q.Kind)
		}
		if q.TargetRecall != 0 {
			return q, badQuery("TargetRecall applies to candidate-set queries only (kind %v)", q.Kind)
		}
	case KindKNN, KindApproxKNN, KindFirstCell:
		if q.K <= 0 {
			return q, badQuery("k must be positive, got %d", q.K)
		}
		if q.CandSize < 0 {
			return q, badQuery("CandSize must be non-negative, got %d", q.CandSize)
		}
		if q.TargetRecall != 0 {
			if q.Kind == KindFirstCell {
				return q, badQuery("TargetRecall cannot steer the fixed 1-cell candidate set (kind %v)", q.Kind)
			}
			if q.TargetRecall <= 0 || q.TargetRecall >= 1 {
				return q, badQuery("TargetRecall must lie in (0, 1), got %g", q.TargetRecall)
			}
			if q.CandSize != 0 {
				return q, badQuery("CandSize and TargetRecall are mutually exclusive (set one)")
			}
			// CandSize stays 0: the sentinel a predictor-equipped backend
			// resolves per query; everyone else applies effCandSize.
		} else if q.CandSize == 0 {
			q.CandSize = DefaultCandSize(q.K)
		}
		if q.RefineLimit < 0 {
			return q, badQuery("RefineLimit must be non-negative, got %d", q.RefineLimit)
		}
		if q.RefineLimit != 0 && q.Kind == KindKNN {
			return q, badQuery("RefineLimit would break the precise k-NN guarantee (kind %v)", q.Kind)
		}
	default:
		return q, badQuery("unknown query kind %v", q.Kind)
	}
	return q, nil
}

// Searcher is the uniform query surface of the similarity cloud, satisfied
// by all three backends:
//
//   - EncryptedClient — the paper's deployment: an authorized client of an
//     untrusted server, transform and refinement on the client.
//   - PlainClient — the non-encrypted baseline: the server does everything.
//   - DirectClient — the index engine embedded in-process, no network.
//
// Search evaluates one query; SearchBatch evaluates many with backends free
// to amortize round trips (results are per-query, in input order). Both
// honor ctx: its deadline bounds every round trip and cancellation
// interrupts blocked IO, surfacing as an error wrapping ctx.Err().
//
// Implementations are safe for concurrent use.
type Searcher interface {
	Search(ctx context.Context, q Query) ([]Result, stats.Costs, error)
	SearchBatch(ctx context.Context, qs []Query) ([][]Result, stats.Costs, error)
	Close() error
}
