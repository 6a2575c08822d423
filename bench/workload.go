package bench

import (
	"fmt"
	"math/rand"
	"strings"
)

// op is one request of a client's sequence: a read of keys[key], or a
// write when write is non-nil.
type op struct {
	key   int
	write *write
}

// write is one ingest batch with what the oracle needs to know about it.
type write struct {
	ops   []IngestOp
	delta []int64 // per key: change of the expected count once committed
	docs  int     // change of the live document count
}

// stream generates one client's op sequence. Everything is drawn from a
// PRNG seeded by (seed, client), so the same seed gives the same sequence;
// the program under test only ever sees the generated requests.
type stream struct {
	workload string
	client   int
	rng      *rand.Rand
	keys     []Key
	ranking  []int // answerable key indices, most popular first (zipf workloads)
	zipf     *zipf
	block    []int // route_miss: the rest of the current permutation of the keys
	i        int
	writes   int
	live     []liveDoc // documents this client inserted and has not replaced
}

type liveDoc struct {
	name  string
	delta []int64
}

// zipfS is the popularity skew of serve_hot and ingest_mix.
const zipfS = 1.1

// newStream returns client's stream over the keys the corpus can answer.
// Popularity follows the order of queries.go with joins and paths taking
// alternate ranks (D1, PD1, D2, PD2, ...); the seed decides the draws, not
// the ranking. A seeded ranking was tried first: which keys are hot decides
// the bytes per answer on serve_hot and the cost of the misses that follow
// every commit on ingest_mix, so throughput differed by 1.7x between seeds
// and no bound could tell a regression from a change of seed.
func newStream(workload string, seed int64, client int, keys []Key, answerable []int) *stream {
	var kinds [2][]int
	for _, k := range answerable {
		if keys[k].IsJoin() {
			kinds[0] = append(kinds[0], k)
		} else {
			kinds[1] = append(kinds[1], k)
		}
	}
	var ranking []int
	for i := 0; len(ranking) < len(answerable); i++ {
		for _, kind := range kinds {
			if i < len(kind) {
				ranking = append(ranking, kind[i])
			}
		}
	}
	return &stream{
		workload: workload, client: client, keys: keys, ranking: ranking,
		rng:  rand.New(rand.NewSource(seed*1_000_003 + int64(client) + 1)),
		zipf: newZipf(len(ranking), zipfS),
	}
}

// next returns the client's next op.
func (s *stream) next() op {
	i := s.i
	s.i++
	switch s.workload {
	case "route_miss":
		// Uniform as a sequence of random permutations: every key exactly
		// once per len(ranking) ops, so that how many of the expensive keys
		// a run happens to draw is not left to chance.
		if len(s.block) == 0 {
			s.block = append(s.block, s.ranking...)
			s.rng.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
		}
		key := s.block[len(s.block)-1]
		s.block = s.block[:len(s.block)-1]
		return op{key: key}
	case "ingest_mix":
		// pbiload's rule: 10% writes, spread evenly through the sequence.
		if i*61%100 < 10 {
			return op{write: s.nextWrite()}
		}
	}
	return op{key: s.ranking[s.zipf.draw(s.rng)]}
}

// nextWrite inserts a generated 12-element document; every fifth write
// atomically replaces a document this client inserted earlier.
func (s *stream) nextWrite() *write {
	w := s.writes
	s.writes++
	xml, root := genDoc(s.rng)
	doc := liveDoc{
		name:  fmt.Sprintf("w%d-%d", s.client, w),
		delta: Oracle([]*Element{root}, s.keys),
	}
	wr := &write{delta: append([]int64(nil), doc.delta...), docs: 1}
	if w%5 == 4 && len(s.live) > 0 {
		j := s.rng.Intn(len(s.live))
		old := s.live[j]
		s.live = append(s.live[:j], s.live[j+1:]...)
		wr.ops = append(wr.ops, IngestOp{Op: "delete_doc", Doc: old.name})
		for k := range wr.delta {
			wr.delta[k] -= old.delta[k]
		}
		wr.docs = 0
	}
	wr.ops = append(wr.ops, IngestOp{Op: "insert_doc", Doc: doc.name, XML: xml})
	s.live = append(s.live, doc)
	return wr
}

// writeDocElems is the size of every generated document.
const writeDocElems = 12

// genDoc generates a DBLP-shaped document of writeDocElems elements — one
// article and one inproceedings sharing four authors between them — as XML
// and as the tree the oracle walks.
func genDoc(rng *rand.Rand) (string, *Element) {
	root := &Element{Tag: "dblp"}
	add := func(parent *Element, tag, text string) *Element {
		e := &Element{Tag: tag, Text: text, Parent: parent}
		parent.Children = append(parent.Children, e)
		return e
	}
	authors := 1 + rng.Intn(3)
	art := add(root, "article", "")
	for i := 0; i < authors; i++ {
		add(art, "author", fmt.Sprintf("Author %d", rng.Intn(1000)))
	}
	add(art, "title", fmt.Sprintf("On Topic %d", rng.Intn(100000)))
	add(art, "year", fmt.Sprintf("%d", 1970+rng.Intn(33)))
	add(art, "journal", fmt.Sprintf("Journal %d", rng.Intn(200)))
	inp := add(root, "inproceedings", "")
	for i := authors; i < 4; i++ {
		add(inp, "author", fmt.Sprintf("Author %d", rng.Intn(1000)))
	}
	add(inp, "title", fmt.Sprintf("Conference Paper %d", rng.Intn(100000)))
	add(inp, "year", fmt.Sprintf("%d", 1980+rng.Intn(23)))

	var b strings.Builder
	var emit func(e *Element)
	emit = func(e *Element) {
		b.WriteString("<" + e.Tag + ">")
		b.WriteString(e.Text) // generated text has no markup characters
		for _, c := range e.Children {
			emit(c)
		}
		b.WriteString("</" + e.Tag + ">")
	}
	emit(root)
	return b.String(), root
}
