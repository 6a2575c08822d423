package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/pbitree/pbitree/containment"
)

// TestMain lets the tests run pbijoin itself: the test binary re-executed
// with PBIJOIN_MAIN set runs main on the arguments after "--".
func TestMain(m *testing.M) {
	if os.Getenv("PBIJOIN_MAIN") != "" {
		for i, arg := range os.Args {
			if arg == "--" {
				os.Args = append([]string{"pbijoin"}, os.Args[i+1:]...)
				break
			}
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// pbijoin runs the command on args and returns its exit code and output.
func pbijoin(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^$", "--"}, args...)...)
	cmd.Env = append(os.Environ(), "PBIJOIN_MAIN=1")
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		return exit.ExitCode(), out.String(), errOut.String()
	case err != nil:
		t.Fatal(err)
	}
	return 0, out.String(), errOut.String()
}

// TestAlgorithmNames: the -algo help and the unknown-name error list the
// algorithms containment accepts, and nothing else: "cost", the alias of
// a second AUTO, is refused like any unknown name.
func TestAlgorithmNames(t *testing.T) {
	names := strings.Join(containment.AlgorithmNames(), ", ")
	code, _, errOut := pbijoin(t, "-algo", "cost", "a.codes", "d.codes")
	if code != 2 || !strings.Contains(errOut, `unknown algorithm "cost" (accepted: `+names+")") {
		t.Fatalf("-algo cost: exit %d, stderr %q; want 2 listing %s", code, errOut, names)
	}
	if _, _, errOut = pbijoin(t, "-h"); !strings.Contains(errOut, "algorithm ("+strings.Join(containment.AlgorithmNames(), "|")+")") {
		t.Fatalf("-h: stderr %q", errOut)
	}
}

// TestHeaderMarksOrder: the input header marks an input stored in document
// order, as EXPLAIN does, on one engine and on shards.
func TestHeaderMarksOrder(t *testing.T) {
	dir := t.TempDir()
	a, d := filepath.Join(dir, "a.codes"), filepath.Join(dir, "d.codes")
	// a: the root of a height-3 tree; d: its leaves, in document order
	// when sorted and out of it when reversed.
	if err := os.WriteFile(a, []byte("4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		desc, want string
	}{
		{"1\n3\n5\n7\n", "|A|=1 (1 pages, ordered)  |D|=4 (1 pages, ordered)"},
		{"7\n5\n3\n1\n", "|A|=1 (1 pages, ordered)  |D|=4 (1 pages)"},
	} {
		if err := os.WriteFile(d, []byte(tc.desc), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, shards := range []string{"0", "1"} {
			code, out, errOut := pbijoin(t, "-shards", shards, a, d)
			if code != 0 || !strings.HasPrefix(out, tc.want+"  b=") || !strings.Contains(out, "pairs=4 ") {
				t.Fatalf("-shards %s: exit %d, stdout %q, stderr %q; want the header %q and 4 pairs", shards, code, out, errOut, tc.want)
			}
		}
	}
}
