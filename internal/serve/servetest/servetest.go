// Package servetest checks the HTTP surface of the serving tiers in
// tests. /metrics is rendered by hand, so Lint holds every page to the
// exposition format's rules instead of trusting it; Mask, MaskTrace,
// KeyPaths and Golden pin a page's bytes and a JSON payload's shape across
// refactors.
package servetest

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var exemplarRE = regexp.MustCompile(`^\{trace_id="[^"]*"\} (\S+)$`)

// Lint parses a /metrics page and fails t on any departure from the text
// exposition format: a family without both HELP and TYPE, or announced
// twice; a sample of no family announced before it; a repeated series; a
// sample line that is not exactly two fields (plus, under OpenMetrics
// only, an exemplar); a non-numeric value; histogram buckets that are not
// cumulative, or a _count that differs from the +Inf bucket; and, under
// OpenMetrics, a page not ending in `# EOF`. It returns the samples
// (series → value) and the families (name → type).
func Lint(t testing.TB, body []byte, openMetrics bool) (samples map[string]float64, families map[string]string) {
	t.Helper()
	samples, families = map[string]float64{}, map[string]string{}
	help := map[string]bool{}
	last := map[string]float64{} // histogram series → last bucket, until its _count
	inf := map[string]float64{}  // histogram series → +Inf bucket
	lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	if openMetrics {
		if lines[len(lines)-1] != "# EOF" {
			t.Fatal("OpenMetrics page does not end with # EOF")
		}
		lines = lines[:len(lines)-1]
	}
	for i, line := range lines {
		fail := func(msg string) { t.Fatalf("line %d: %s: %q", i+1, msg, line) }
		if f := strings.Fields(line); len(f) > 0 && f[0] == "#" {
			switch {
			case len(f) >= 3 && f[1] == "HELP" && !help[f[2]]:
				help[f[2]] = true
			case len(f) == 4 && f[1] == "TYPE" && help[f[2]] && families[f[2]] == "":
				families[f[2]] = f[3]
			default:
				fail("bad, repeated or misplaced comment line")
			}
			continue
		}
		sample, exemplar, hasEx := strings.Cut(line, " # ")
		if hasEx && (!openMetrics || !exemplarRE.MatchString(exemplar)) {
			fail("bad exemplar")
		}
		f := strings.Fields(sample)
		if len(f) != 2 {
			fail("sample line is not exactly 2 fields")
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			fail("non-numeric sample value")
		}
		if _, dup := samples[f[0]]; dup {
			fail("repeated series")
		}
		samples[f[0]] = v

		name, labels, _ := strings.Cut(strings.TrimSuffix(f[0], "}"), "{")
		if families[name] != "" {
			continue
		}
		cut := strings.LastIndexByte(name, '_')
		if cut < 0 || families[name[:cut]] != "histogram" {
			fail("sample of no announced family")
		}
		if j := strings.Index(labels, `le="`); j >= 0 {
			labels = strings.TrimSuffix(labels[:j], ",")
		}
		key := name[:cut] + "{" + labels + "}"
		switch name[cut+1:] {
		case "bucket":
			if _, done := inf[key]; done || v < last[key] {
				fail("histogram buckets are not cumulative")
			}
			last[key] = v
			if strings.Contains(f[0], `le="+Inf"`) {
				inf[key] = v
			}
		case "count":
			if c, ok := inf[key]; !ok || c != v {
				fail("histogram _count differs from its +Inf bucket")
			}
			delete(last, key)
		case "sum":
		default:
			fail("sample of no announced family")
		}
	}
	for name := range help {
		if families[name] == "" {
			t.Fatalf("family %s has HELP but no TYPE", name)
		}
	}
	for key := range last {
		t.Fatalf("histogram %s has no _count", key)
	}
	return samples, families
}

var buildInfoRE = regexp.MustCompile(`^(\w+_build_info)\{[^}]*\}`)

// Mask rewrites the parts of a /metrics page that vary between runs of
// the same traffic, leaving everything else byte for byte: time-valued
// samples (every `*_seconds*` series, every histogram bucket count and
// `_sum`) read X, exemplar trace IDs read X (bucket exemplars, whose bucket
// depends on timing, are dropped), and build_info's labels read X.
func Mask(body string) string {
	lines := strings.Split(body, "\n")
	for i, line := range lines {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		line = buildInfoRE.ReplaceAllString(line, `$1{X}`)
		series, value, _ := strings.Cut(line, " ")
		value, ex, _ := strings.Cut(value, " # ")
		exemplar := ""
		if m := exemplarRE.FindStringSubmatch(ex); m != nil {
			exemplar = ` # {trace_id="X"} ` + m[1]
		}
		name, _, _ := strings.Cut(series, "{")
		if strings.Contains(series, `le="`) {
			value, exemplar = "X", ""
		} else if strings.Contains(name, "_seconds") || strings.HasSuffix(name, "_sum") {
			value = "X"
		}
		lines[i] = series + " " + value + exemplar
	}
	return strings.Join(lines, "\n")
}

// MaskTrace blanks, in a decoded trace record (GET /debug/trace/{id}) or
// span tree, the fields two executions of one query differ in however
// equal their work: ts, trace_id and every span's wall_ns read "masked".
// It rewrites v in place and returns it.
func MaskTrace(v any) any {
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			switch k {
			case "ts", "trace_id", "wall_ns":
				x[k] = "masked"
			default:
				x[k] = MaskTrace(e)
			}
		}
	case []any:
		for i, e := range x {
			x[i] = MaskTrace(e)
		}
	}
	return v
}

// KeyPaths lists every key path of a JSON object, sorted: nested objects
// as a.b, array elements as a[].b (the union over elements).
func KeyPaths(t testing.TB, body []byte) []string {
	t.Helper()
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("KeyPaths: %v: %s", err, body)
	}
	set := map[string]bool{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch x := v.(type) {
		case map[string]any:
			for k, e := range x {
				p := k
				if prefix != "" {
					p = prefix + "." + k
				}
				set[p] = true
				walk(p, e)
			}
		case []any:
			for _, e := range x {
				walk(prefix+"[]", e)
			}
		}
	}
	walk("", v)
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Number returns the number at a dotted key path of a JSON object, array
// elements addressed by index (nodes.0.requests).
func Number(t testing.TB, body []byte, path string) float64 {
	t.Helper()
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("Number: %v: %s", err, body)
	}
	for _, k := range strings.Split(path, ".") {
		switch x := v.(type) {
		case map[string]any:
			v = x[k]
		case []any:
			i, err := strconv.Atoi(k)
			if err != nil || i < 0 || i >= len(x) {
				t.Fatalf("Number: no element %q in %s", k, path)
			}
			v = x[i]
		}
	}
	n, ok := v.(float64)
	if !ok {
		t.Fatalf("Number: %s is %v, not a number", path, v)
	}
	return n
}

// Golden compares got with the contents of the file at path and fails t
// with both texts on any difference.
func Golden(t testing.TB, path, got string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden %s: %v\n--- got ---\n%s", path, err, got)
	}
	if got != string(want) {
		t.Fatalf("golden %s differs\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
