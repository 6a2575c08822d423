package serve

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
)

// This file renders the Prometheus text exposition format (version 0.0.4)
// by hand — the format is a few line shapes, and writing it directly keeps
// the repository dependency-free. Label values come exclusively from small
// fixed vocabularies (algorithm and phase names, the topology fixed at
// startup), never from request input, so series cardinality is bounded by
// construction.
//
// Scrapers that Accept application/openmetrics-text get the OpenMetrics
// flavor instead: the same families plus exemplars carrying recent trace
// IDs (`# {trace_id="..."} value`), and the mandatory `# EOF` terminator.
// The default 0.0.4 output stays exactly two fields per sample line, so
// exemplars appear only under content negotiation.

// openMetricsContentType is the negotiated exemplar-capable content type.
const openMetricsContentType = "application/openmetrics-text"

// MetricsHandler serves GET /metrics through write, which renders every
// family and attaches exemplars when om is set.
func MetricsHandler(write func(w io.Writer, om bool)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		om := strings.Contains(r.Header.Get("Accept"), openMetricsContentType)
		if om {
			w.Header().Set("Content-Type", openMetricsContentType+"; version=1.0.0; charset=utf-8")
		} else {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		}
		write(w, om)
		if om {
			io.WriteString(w, "# EOF\n") //nolint:errcheck // best effort
		}
	}
}

// Family emits the HELP/TYPE preamble of one metric family.
func Family(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Metric emits a family of one unlabelled sample; v is an integer or a
// float.
func Metric(w io.Writer, name, help, typ string, v any) {
	Family(w, name, help, typ)
	fmt.Fprintf(w, "%s %v\n", name, v)
}

// Series emits a family with one sample per label list: labels[i] (e.g.
// `node="http://n0",shard="0"`) carries value(i), an integer or a float.
func Series(w io.Writer, name, help, typ string, labels []string, value func(i int) any) {
	Family(w, name, help, typ)
	for i, l := range labels {
		fmt.Fprintf(w, "%s{%s} %v\n", name, l, value(i))
	}
}

// Exemplar renders an OpenMetrics exemplar annotation, empty when
// exemplars are off or no trace has hit the series yet.
func Exemplar(om bool, traceID string, value float64) string {
	if !om || traceID == "" {
		return ""
	}
	return fmt.Sprintf(" # {trace_id=%q} %g", traceID, value)
}

// WriteBuildInfo emits the build_info gauge family name: constant 1, the
// labels carrying the main module's version, the toolchain and the VCS
// revision ("unknown" when the binary was built without VCS stamping).
func WriteBuildInfo(w io.Writer, name, help string) {
	bi := buildInfo()
	Family(w, name, help, "gauge")
	fmt.Fprintf(w, "%s{version=%q,go_version=%q,revision=%q} 1\n",
		name, bi.version, bi.goVersion, bi.revision)
}

// buildMeta is the process's build identity, read once.
type buildMeta struct{ version, goVersion, revision string }

var buildInfo = sync.OnceValue(func() buildMeta {
	m := buildMeta{version: "unknown", goVersion: runtime.Version(), revision: "unknown"}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return m
	}
	if bi.Main.Version != "" {
		m.version = bi.Main.Version
	}
	if bi.GoVersion != "" {
		m.goVersion = bi.GoVersion
	}
	for _, kv := range bi.Settings {
		if kv.Key == "vcs.revision" && kv.Value != "" {
			m.revision = kv.Value
			if len(m.revision) > 12 {
				m.revision = m.revision[:12]
			}
		}
	}
	// Label values feed a whitespace-delimited exposition format whose
	// consumers assume exactly "name value" per line; keep them space-free
	// whatever the toolchain reports.
	m.version = strings.ReplaceAll(m.version, " ", "_")
	m.goVersion = strings.ReplaceAll(m.goVersion, " ", "_")
	m.revision = strings.ReplaceAll(m.revision, " ", "_")
	return m
})
