package shard

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"github.com/pbitree/pbitree/containment"
	"github.com/pbitree/pbitree/pbicode"
)

// This file turns one stored database into N document-disjoint shard
// databases: Pack balance-packs documents by element count (greedy LPT),
// Split materializes the per-shard page files plus a manifest.json that
// Open later resolves. Discover serves callers without a document catalog
// (raw code files): it recovers maximal disjoint code regions from the
// codes themselves, which is exact because tree regions form a laminar
// family — any two are nested or disjoint, never partially overlapping.

// manifestVersion guards the manifest format.
const manifestVersion = 1

// ManifestName is the file name Split writes inside the shard directory.
const ManifestName = "manifest.json"

// Manifest describes a split database: one entry per shard, paths relative
// to the manifest's own directory (the directory is relocatable).
type Manifest struct {
	Version int             `json:"version"`
	Shards  []ManifestShard `json:"shards"`
}

// ManifestShard is one shard's entry.
type ManifestShard struct {
	// Path of the shard's page file, relative to the manifest directory
	// (absolute paths are honored but not written by Split).
	Path string `json:"path"`
	// Documents assigned to this shard, in collection order.
	Documents []string `json:"documents"`
	// Elements is the shard's total stored-element weight (the packer's
	// balance quantity).
	Elements int64 `json:"elements"`
}

// WriteManifest writes m to path (atomically, via rename).
func WriteManifest(path string, m *Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// ReadManifest reads and validates a manifest, returning it together with
// the shard page-file paths resolved against the manifest's directory.
func ReadManifest(path string) (*Manifest, []string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("shard: read manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, nil, fmt.Errorf("shard: parse manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return nil, nil, fmt.Errorf("shard: manifest version %d unsupported", m.Version)
	}
	if len(m.Shards) == 0 {
		return nil, nil, fmt.Errorf("shard: manifest lists no shards")
	}
	dir := filepath.Dir(path)
	paths := make([]string, len(m.Shards))
	for i, s := range m.Shards {
		if s.Path == "" {
			return nil, nil, fmt.Errorf("shard: manifest shard %d has no path", i)
		}
		if filepath.IsAbs(s.Path) {
			paths[i] = s.Path
		} else {
			paths[i] = filepath.Join(dir, s.Path)
		}
	}
	return &m, paths, nil
}

// Pack balance-packs weights into n groups with the greedy LPT heuristic
// (heaviest first onto the currently lightest group) and returns the
// groups as index lists, each ascending. LPT is within 4/3 of the optimal
// makespan — good enough that the slowest shard, which bounds the
// fan-out's wall time, stays close to the mean.
func Pack(weights []int64, n int) [][]int {
	if n < 1 {
		n = 1
	}
	order := make([]int, len(weights))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return weights[order[a]] > weights[order[b]] })
	groups := make([][]int, n)
	loads := make([]int64, n)
	for _, idx := range order {
		g := 0
		for j := 1; j < n; j++ {
			if loads[j] < loads[g] {
				g = j
			}
		}
		groups[g] = append(groups[g], idx)
		loads[g] += weights[idx]
	}
	for _, g := range groups {
		sort.Ints(g)
	}
	return groups
}

// Discover recovers the maximal disjoint code regions spanned by the
// given code sets — split units for inputs that never recorded document
// boundaries. Because PBiTree regions are laminar (nested or disjoint),
// sorting by region start and sweeping an envelope yields exactly the
// maximal groups. A containment pair always lies within one group (the
// ancestor's region contains the descendant's), so splitting on these
// boundaries is exact for any input; the groups are at least as fine as
// documents, which only helps balance.
func Discover(sets ...[]pbicode.Code) []pbicode.Region {
	var regions []pbicode.Region
	for _, set := range sets {
		for _, c := range set {
			regions = append(regions, c.Region())
		}
	}
	if len(regions) == 0 {
		return nil
	}
	sort.Slice(regions, func(i, j int) bool {
		if regions[i].Start != regions[j].Start {
			return regions[i].Start < regions[j].Start
		}
		return regions[i].End > regions[j].End
	})
	out := []pbicode.Region{regions[0]}
	for _, r := range regions[1:] {
		cur := &out[len(out)-1]
		if r.Start > cur.End {
			out = append(out, r)
		}
		// else: laminar ⇒ r nested inside cur; the envelope already covers it.
	}
	return out
}

// Split reads a stored database (whose catalog must carry a document
// catalog — build with pbidb, which records one) and writes n
// document-disjoint shard databases plus a manifest into outDir. Every
// stored relation appears on every shard (possibly empty), so the sharded
// store serves the same relation names as the original. Returns the
// manifest; open the result with Open(filepath.Join(outDir, ManifestName), cfg).
func Split(srcPath string, n int, outDir string) (*Manifest, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", n)
	}
	src, rels, err := containment.Open(containment.Config{Path: srcPath, ReadOnly: true})
	if err != nil {
		return nil, err
	}
	defer src.Close() //nolint:errcheck // read-only source
	docs, err := src.Documents()
	if err != nil {
		return nil, fmt.Errorf("shard: %s: %w", srcPath, err)
	}
	if len(docs) == 0 {
		return nil, fmt.Errorf("shard: %s has no document catalog (rebuild it with pbidb build to record document boundaries)", srcPath)
	}

	// Assign each code to its document by region: documents are disjoint,
	// so sorting by region start and binary-searching the code's start
	// finds the only candidate.
	regions := make([]pbicode.Region, len(docs))
	byStart := make([]int, len(docs))
	for i, d := range docs {
		regions[i] = d.Root.Region()
		byStart[i] = i
	}
	sort.Slice(byStart, func(a, b int) bool { return regions[byStart[a]].Start < regions[byStart[b]].Start })
	docOf := func(c pbicode.Code) (int, error) {
		s := c.Start()
		k := sort.Search(len(byStart), func(j int) bool { return regions[byStart[j]].Start > s })
		if k > 0 {
			d := byStart[k-1]
			if regions[d].ContainsPoint(s) && regions[d].ContainsPoint(c.End()) {
				return d, nil
			}
		}
		return 0, fmt.Errorf("shard: code %v lies outside every document region", c)
	}

	weights := make([]int64, len(docs))
	for i, d := range docs {
		weights[i] = d.Elements
	}
	groups := Pack(weights, n)
	shardOf := make([]int, len(docs))
	for g, idxs := range groups {
		for _, i := range idxs {
			shardOf[i] = g
		}
	}

	// Partition every relation's codes by shard, preserving stored order.
	names := make([]string, 0, len(rels))
	for name := range rels {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make(map[string][][]pbicode.Code, len(names))
	for _, name := range names {
		codes, err := rels[name].Codes()
		if err != nil {
			return nil, err
		}
		per := make([][]pbicode.Code, n)
		for _, c := range codes {
			d, err := docOf(c)
			if err != nil {
				return nil, fmt.Errorf("relation %q: %w", name, err)
			}
			g := shardOf[d]
			per[g] = append(per[g], c)
		}
		parts[name] = per
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	man := &Manifest{Version: manifestVersion}
	for g := 0; g < n; g++ {
		relName := fmt.Sprintf("shard-%d.db", g)
		path := filepath.Join(outDir, relName)
		eng, err := containment.NewEngine(containment.Config{
			Path:       path,
			PageSize:   src.PageSize(),
			TreeHeight: src.TreeHeight(),
		})
		if err != nil {
			return nil, err
		}
		var loaded []*containment.Relation
		for _, name := range names {
			r, err := eng.Load(name, parts[name][g])
			if err != nil {
				eng.Close() //nolint:errcheck // first error wins
				return nil, fmt.Errorf("shard %d: load %q: %w", g, name, err)
			}
			loaded = append(loaded, r)
		}
		ms := ManifestShard{Path: relName}
		var shardDocs []containment.DocInfo
		for _, i := range groups[g] {
			shardDocs = append(shardDocs, docs[i])
			ms.Documents = append(ms.Documents, docs[i].Name)
			ms.Elements += docs[i].Elements
		}
		if err := eng.SaveDocs(shardDocs, loaded...); err != nil {
			eng.Close() //nolint:errcheck // first error wins
			return nil, fmt.Errorf("shard %d: save: %w", g, err)
		}
		if err := eng.Close(); err != nil {
			return nil, err
		}
		man.Shards = append(man.Shards, ms)
	}
	if err := WriteManifest(filepath.Join(outDir, ManifestName), man); err != nil {
		return nil, err
	}
	return man, nil
}
