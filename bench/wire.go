package bench

// The HTTP wire shapes the harness reads and writes, declared here rather
// than imported so that only the field names below are frozen.

// IngestOp is one operation of a POST /ingest batch.
type IngestOp struct {
	Op  string `json:"op"`
	Doc string `json:"doc,omitempty"`
	XML string `json:"xml,omitempty"`
}

type ingestRequest struct {
	Ops []IngestOp `json:"ops"`
}

// CommitResult is the POST /ingest answer.
type CommitResult struct {
	Epoch           int64  `json:"epoch"`
	Applied         int    `json:"applied"`
	RenumbersScoped uint64 `json:"renumbers_scoped"`
	RenumbersGlobal uint64 `json:"renumbers_global"`
}

// countResponse is the part of /join and /query answers the oracle checks.
type countResponse struct {
	Count int64 `json:"count"`
}

type ingestStats struct {
	Epoch           int64  `json:"epoch"`
	ChainLen        int    `json:"chain_len"`
	Documents       int    `json:"documents"`
	Elements        int    `json:"elements"`
	Commits         uint64 `json:"commits"`
	RenumbersScoped uint64 `json:"renumbers_scoped"`
	RenumbersGlobal uint64 `json:"renumbers_global"`
	Compactions     uint64 `json:"compactions"`
	CompactAborts   uint64 `json:"compact_aborts"`
}

// nodeStats is the part of a qserv node's GET /stats the harness reads.
type nodeStats struct {
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	Rejected int64 `json:"rejected"`
	Cache    *struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"cache"`
	Algorithms map[string]struct {
		Requests int64 `json:"requests"`
		PageIO   int64 `json:"page_io"`
	} `json:"algorithms"`
}

// joins sums executed joins and their modeled page I/O over algorithms.
func (s nodeStats) joins() (joins, pageIO int64) {
	for _, a := range s.Algorithms {
		joins += a.Requests
		pageIO += a.PageIO
	}
	return joins, pageIO
}

// routerStats is the part of the router's GET /stats the harness reads.
type routerStats struct {
	Requests   int64 `json:"requests"`
	HedgeFires int64 `json:"hedge_fires"`
	HedgeWins  int64 `json:"hedge_wins"`
	Failovers  int64 `json:"failovers"`
	Nodes      []struct {
		Requests int64 `json:"requests"`
	} `json:"nodes"`
}

// epochsResponse is the part of GET /epochs the harness reads.
type epochsResponse struct {
	Current     int64       `json:"current"`
	Stats       ingestStats `json:"stats"`
	WorkerSwaps int64       `json:"worker_swaps"`
}
