package servetest

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// recorder is a testing.TB whose Fatal stops only the calling goroutine,
// so a test can observe that Lint rejects a page.
type recorder struct {
	testing.TB
	failed bool
}

func (r *recorder) Helper() {}
func (r *recorder) Fatal(args ...any) {
	r.failed = true
	runtime.Goexit()
}
func (r *recorder) Fatalf(format string, args ...any) { r.Fatal(fmt.Sprintf(format, args...)) }

// rejects reports whether Lint fails on page.
func rejects(page string, openMetrics bool) bool {
	r := &recorder{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		Lint(r, []byte(page), openMetrics)
	}()
	<-done
	return r.failed
}

const good = `# HELP c A counter.
# TYPE c counter
c 3
# HELP h A histogram.
# TYPE h histogram
h_bucket{node="n",le="0.1"} 1 # {trace_id="t1"} 0.05
h_bucket{node="n",le="+Inf"} 2
h_sum{node="n"} 0.3
h_count{node="n"} 2
`

func TestLint(t *testing.T) {
	plain := strings.ReplaceAll(good, ` # {trace_id="t1"} 0.05`, "")
	if rejects(plain, false) {
		t.Fatal("a well-formed 0.0.4 page was rejected")
	}
	if rejects(good+"# EOF\n", true) {
		t.Fatal("a well-formed OpenMetrics page was rejected")
	}
	for name, page := range map[string]string{
		"exemplar under 0.0.4":     good,
		"three fields":             "# HELP c A.\n# TYPE c counter\nc 3 4\n",
		"non-numeric":              "# HELP c A.\n# TYPE c counter\nc three\n",
		"no family":                "c 3\n",
		"TYPE without HELP":        "# TYPE c counter\nc 3\n",
		"HELP without TYPE":        "# HELP c A.\n",
		"family twice":             "# HELP c A.\n# TYPE c counter\n# HELP c A.\n# TYPE c counter\nc 3\n",
		"repeated series":          "# HELP c A.\n# TYPE c counter\nc 3\nc 3\n",
		"not cumulative":           strings.Replace(plain, `le="0.1"} 1`, `le="0.1"} 5`, 1),
		"+Inf differs from _count": strings.Replace(plain, `h_count{node="n"} 2`, `h_count{node="n"} 3`, 1),
		"no _count":                strings.Replace(plain, "h_count{node=\"n\"} 2\n", "", 1),
		"EOF under 0.0.4":          plain + "# EOF\n",
	} {
		if !rejects(page, false) {
			t.Errorf("%s: accepted", name)
		}
	}
	if !rejects(good, true) {
		t.Error("OpenMetrics page without # EOF: accepted")
	}
}
