package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestMintedTraceIDs pins a minted trace ID to the prefix followed by the
// sequence number as %08x prints it, at every width.
func TestMintedTraceIDs(t *testing.T) {
	m := &Middleware{IDPrefix: "r0abcdef-"}
	h := m.Wrap(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	for _, seq := range []uint64{0, 0xe, 0xfffffe, 0xfffffffe, 0xffffffff, 1 << 40} {
		m.seq.Store(seq)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
		if got, want := rec.Header().Get("X-Trace-Id"), fmt.Sprintf("r0abcdef-%08x", seq+1); got != want {
			t.Errorf("sequence %d: minted %q, want %q", seq+1, got, want)
		}
	}
}
