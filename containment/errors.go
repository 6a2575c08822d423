package containment

import (
	"context"
	"errors"
	"io/fs"

	"github.com/pbitree/pbitree/internal/core"
	"github.com/pbitree/pbitree/internal/storage"
)

// ErrCanceled matches errors returned by a join whose context was
// canceled (errors.Is also matches context.Canceled on the same error).
var ErrCanceled = core.ErrCanceled

// ErrDeadlineExceeded matches errors returned by a join whose context
// deadline passed (errors.Is also matches context.DeadlineExceeded).
var ErrDeadlineExceeded = core.ErrDeadlineExceeded

// FailureClass partitions join errors by what should happen next: retry,
// report, or alarm. Servers map classes to status codes (see
// internal/qserv: canceled → 499, deadline → 504, the rest → 500).
type FailureClass int

const (
	// FailNone: the error is nil.
	FailNone FailureClass = iota
	// FailCanceled: the caller's context was canceled (client gone).
	FailCanceled
	// FailDeadline: the caller's deadline expired.
	FailDeadline
	// FailStorage: the storage layer failed (I/O error, injected fault).
	FailStorage
	// FailCorrupt: a page failed checksum verification, or a relation is
	// not in the document order its catalog entry claims — the data on
	// disk is damaged. Distinct from FailStorage because the right response
	// differs: the query must fail (never silently return a wrong answer),
	// the page stays quarantined, and the operator runs pbifsck rather
	// than retrying the same replica.
	FailCorrupt
	// FailInternal: anything else — a logic error worth alarming on.
	FailInternal
)

// String names the class.
func (c FailureClass) String() string {
	switch c {
	case FailNone:
		return "none"
	case FailCanceled:
		return "canceled"
	case FailDeadline:
		return "deadline"
	case FailStorage:
		return "storage"
	case FailCorrupt:
		return "corrupt"
	default:
		return "internal"
	}
}

// Classify maps a join error onto its FailureClass. Cancellation is
// recognized through either vocabulary (core sentinels or context
// errors); corruption through storage.ErrCorrupt and core.ErrOrderClaim;
// storage failures through storage.ErrInjected and OS-level
// path/filesystem errors.
func Classify(err error) FailureClass {
	if err == nil {
		return FailNone
	}
	switch {
	case errors.Is(err, core.ErrDeadlineExceeded), errors.Is(err, context.DeadlineExceeded):
		return FailDeadline
	case errors.Is(err, core.ErrCanceled), errors.Is(err, context.Canceled):
		return FailCanceled
	case errors.Is(err, storage.ErrCorrupt), errors.Is(err, core.ErrOrderClaim):
		return FailCorrupt
	case errors.Is(err, storage.ErrInjected):
		return FailStorage
	}
	var pathErr *fs.PathError
	if errors.As(err, &pathErr) {
		return FailStorage
	}
	return FailInternal
}

// failureDetail annotates a trace root span for an aborted join.
func failureDetail(err error) string {
	switch Classify(err) {
	case FailCanceled:
		return "canceled"
	case FailDeadline:
		return "canceled (deadline)"
	default:
		return "error"
	}
}
