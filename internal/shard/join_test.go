package shard

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"github.com/pbitree/pbitree/containment"
	"github.com/pbitree/pbitree/internal/storage"
)

// TestRunShardsPrefersRealFailure runs two shards at once. Shard 0 reports
// a deadline first; shard 1 fails for real (a corrupt page) only after the
// fan-out has canceled it. The request must report the corruption, not
// the deadline that arrived first: a corrupt answer is what the router
// retries on a replica.
func TestRunShardsPrefersRealFailure(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	e := &Engine{shards: make([]*containment.Engine, 2)}
	started := make(chan struct{})
	err := e.runShards(context.Background(), func(ctx context.Context, i int) error {
		if i == 0 {
			<-started
			return context.DeadlineExceeded
		}
		close(started)
		<-ctx.Done()
		return fmt.Errorf("shard 1: %w", storage.ErrCorrupt)
	})
	if got := containment.Classify(err); got != containment.FailCorrupt {
		t.Fatalf("Classify = %v (err=%v), want FailCorrupt", got, err)
	}
}
