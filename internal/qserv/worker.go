package qserv

import (
	"context"
	"sort"
	"strings"

	"github.com/pbitree/pbitree/containment"
	"github.com/pbitree/pbitree/internal/shard"
	"github.com/pbitree/pbitree/pbicode"
)

// This file abstracts "one borrowed execution unit" behind the worker
// interface so the handler/pool machinery (acquire, quarantine, guard,
// cache) is identical for solo and sharded serving. A soloWorker owns one
// read-only containment.Engine, as the server always has; a shardWorker
// owns one shard.Engine — N read-only engines behind a scatter-gather
// coordinator — so a single borrowed worker fans each request out across
// every shard (Config.Shards). Either way, exactly one request uses a
// worker at a time, preserving the engines' single-owner invariant.

// worker is one poolable execution unit.
type worker interface {
	// analyze runs one tagged containment join under EXPLAIN ANALYZE,
	// resolving tag names ("figure" or "tag:figure"). A missing tag
	// returns *unknownRelationError (the 404 path).
	analyze(ctx context.Context, anc, desc string, opts containment.JoinOptions) (*containment.Analysis, error)
	// evalPath runs a descendant-axis chain through
	// containment.Engine.Chain; see path.go.
	evalPath(ctx context.Context, tags []string) ([]pbicode.Code, []PathStep, []*containment.Analysis, error)
	// releaseTemp drops per-request temporary state (between requests).
	releaseTemp() error
	// tempPages gauges private overlay pages still held.
	tempPages() int
	// close releases the worker's engine(s).
	close() error
	// relationInfos lists the stored relations (identical on every worker).
	relationInfos() []RelationInfo
	// shardTotals returns cumulative per-shard I/O, nil for solo workers.
	// It is the one method safe to call while the worker is busy.
	shardTotals() []containment.IOStats
	// epoch is the ingest epoch this worker's engine was opened against
	// (0 when the server has no ingest store). acquire compares it to the
	// store's current epoch and swaps stale workers lazily.
	epoch() int64
}

// soloWorker is one engine plus its view of the stored relations.
type soloWorker struct {
	eng  *containment.Engine
	rels map[string]*containment.Relation
	ep   int64 // ingest epoch at open time; 0 without ingest
}

// relation resolves a tag name, accepting both the raw catalog name and
// the pbidb "tag:" convention.
func (wk *soloWorker) relation(name string) (*containment.Relation, bool) {
	if r, ok := wk.rels[name]; ok {
		return r, true
	}
	if r, ok := wk.rels["tag:"+name]; ok {
		return r, true
	}
	return nil, false
}

func (wk *soloWorker) analyze(ctx context.Context, anc, desc string, opts containment.JoinOptions) (*containment.Analysis, error) {
	a, ok := wk.relation(anc)
	if !ok {
		return nil, &unknownRelationError{anc}
	}
	d, ok := wk.relation(desc)
	if !ok {
		return nil, &unknownRelationError{desc}
	}
	return wk.eng.AnalyzeContext(ctx, a, d, opts)
}

func (wk *soloWorker) releaseTemp() error { return wk.eng.ReleaseTemp() }
func (wk *soloWorker) tempPages() int     { return wk.eng.TempPages() }
func (wk *soloWorker) close() error       { return wk.eng.Close() }

func (wk *soloWorker) relationInfos() []RelationInfo {
	var out []RelationInfo
	for name, r := range wk.rels {
		out = append(out, RelationInfo{
			Name: name, Tag: strings.TrimPrefix(name, "tag:"),
			Elements: r.Len(), Pages: r.Pages(), Ordered: r.Ordered(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (wk *soloWorker) shardTotals() []containment.IOStats { return nil }
func (wk *soloWorker) epoch() int64                       { return wk.ep }

// shardWorker serves requests through a scatter-gather shard.Engine.
type shardWorker struct {
	se *shard.Engine
}

// resolve is the sharded analogue of soloWorker.relation, returning the
// stored catalog name alongside the relation.
func (wk *shardWorker) resolve(name string) (*shard.Relation, string, bool) {
	if r, ok := wk.se.Relation(name); ok {
		return r, name, true
	}
	if r, ok := wk.se.Relation("tag:" + name); ok {
		return r, "tag:" + name, true
	}
	return nil, "", false
}

func (wk *shardWorker) analyze(ctx context.Context, anc, desc string, opts containment.JoinOptions) (*containment.Analysis, error) {
	a, _, ok := wk.resolve(anc)
	if !ok {
		return nil, &unknownRelationError{anc}
	}
	d, _, ok := wk.resolve(desc)
	if !ok {
		return nil, &unknownRelationError{desc}
	}
	return wk.se.AnalyzeContext(ctx, a, d, opts)
}

func (wk *shardWorker) evalPath(ctx context.Context, tags []string) ([]pbicode.Code, []PathStep, []*containment.Analysis, error) {
	// Resolve the user's tags onto stored catalog names up front so the
	// 404 vocabulary matches solo serving.
	stored := make([]string, len(tags))
	for i, tag := range tags {
		_, name, ok := wk.resolve(tag)
		if !ok {
			return nil, nil, nil, &unknownRelationError{tag}
		}
		stored[i] = name
	}
	codes, steps, analyses, err := wk.se.PathContext(ctx, stored)
	// The steps name the stored relations; answer in the query's own tags.
	for i := range steps {
		steps[i].Anc, steps[i].Desc = tags[i], tags[i+1]
	}
	return codes, steps, analyses, err
}

func (wk *shardWorker) releaseTemp() error { return wk.se.ReleaseTemp() }
func (wk *shardWorker) tempPages() int     { return wk.se.TempPages() }
func (wk *shardWorker) close() error       { return wk.se.Close() }

func (wk *shardWorker) relationInfos() []RelationInfo {
	var out []RelationInfo
	for _, name := range wk.se.RelationNames() {
		r, _ := wk.se.Relation(name)
		out = append(out, RelationInfo{
			Name: name, Tag: strings.TrimPrefix(name, "tag:"),
			Elements: r.Len(), Pages: r.Pages(), Ordered: r.Ordered(),
		})
	}
	return out
}

func (wk *shardWorker) shardTotals() []containment.IOStats { return wk.se.Totals() }
func (wk *shardWorker) epoch() int64                       { return 0 }
