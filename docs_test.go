package migratorydata_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mdLink matches inline markdown links [text](target). Good enough for the
// plain links these docs use; reference-style links are not used here.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestDocLinksResolve walks the repository's markdown documentation and
// verifies that every relative link points at a file that exists, so moved
// or renamed docs cannot rot silently. CI runs it in the docs job.
func TestDocLinksResolve(t *testing.T) {
	var files []string
	for _, glob := range []string{"*.md", "docs/*.md"} {
		match, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, match...)
	}
	if len(files) == 0 {
		t.Fatal("no markdown files found")
	}
	checked := 0
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue // external; not checked to keep CI hermetic
			}
			target, _, _ = strings.Cut(target, "#")
			if target == "" {
				continue // pure fragment link
			}
			resolved := filepath.Join(filepath.Dir(file), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q (%v)", file, m[1], err)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no relative links found; the README must at least link docs/")
	}
}

// TestDocsPinDurability pins the durability documentation contract: the
// architecture map describes the durability path, and the benchmark
// runbook carries the on-disk byte layout and the seglog metric families
// — internal/seglog/record.go points readers at these sections by name,
// so renaming them must fail here, not rot silently.
func TestDocsPinDurability(t *testing.T) {
	arch, err := os.ReadFile("docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(arch), "### The durability path") {
		t.Error(`docs/ARCHITECTURE.md lost its "The durability path" section`)
	}
	bench, err := os.ReadFile("docs/BENCHMARKS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"## Durable history",
		"### Segment record layout",
		"migratorydata_seglog_failed",
		"TestIngestInvariants/durable",
		"kill-and-resume",
	} {
		if !strings.Contains(string(bench), want) {
			t.Errorf("docs/BENCHMARKS.md lost %q", want)
		}
	}
}

// TestDocsPinConnectionPath pins the connection-scale documentation
// contract: the architecture map describes the event-loop read path (fd
// ownership rule, the one read path in-process connections share) and the
// benchmark runbook names the idle-connection test, its scale knob and its
// bounds — code and CI point readers at these by name, so renaming them
// must fail here.
func TestDocsPinConnectionPath(t *testing.T) {
	arch, err := os.ReadFile("docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"### The connection path",
		"syscall.RawConn",
		"**One read path.**",
		"socketpair",
	} {
		if !strings.Contains(string(arch), want) {
			t.Errorf("docs/ARCHITECTURE.md lost %q", want)
		}
	}
	bench, err := os.ReadFile("docs/BENCHMARKS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"TestIdleConnectionFootprint",
		"C10M_CONNS",
		"< 0.01 goroutines",
		"16 KiB",
	} {
		if !strings.Contains(string(bench), want) {
			t.Errorf("docs/BENCHMARKS.md lost %q", want)
		}
	}
}

// TestDocsPinMeasurementStack pins the one-instrument contract: the runbook
// points at benchmark/ for timings and names every invariant test, and
// every test it names exists.
func TestDocsPinMeasurementStack(t *testing.T) {
	bench, err := os.ReadFile("docs/BENCHMARKS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"bash benchmark/run.sh --workload",
		"go run ./benchmark -compare",
		"## Invariants are tests",
	} {
		if !strings.Contains(string(bench), want) {
			t.Errorf("docs/BENCHMARKS.md lost %q", want)
		}
	}
	tests, err := os.ReadFile("invariants_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"TestIngestInvariants", "TestDenseFanoutEventsPerPublish", "TestSparseFanoutWorkerPushes",
		"TestSlowConsumerIsolation", "TestIdleConnectionFootprint", "TestScenarioLibraryGreen",
		"TestRawReadPathAllocFree",
	} {
		if !strings.Contains(string(bench), "`"+name) {
			t.Errorf("docs/BENCHMARKS.md does not name %s", name)
		}
		if !strings.Contains(string(tests), "func "+name+"(t *testing.T)") {
			t.Errorf("invariants_test.go has no %s, but the runbook names it", name)
		}
	}
}

// TestDocsExist pins the documentation set the repository promises: the
// architecture map, the wire-format specification, and the benchmark
// runbook, each non-trivially sized and linked from the README.
func TestDocsExist(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"docs/ARCHITECTURE.md", "docs/PROTOCOL.md", "docs/BENCHMARKS.md", "docs/STATIC_ANALYSIS.md"} {
		st, err := os.Stat(doc)
		if err != nil {
			t.Errorf("missing %s: %v", doc, err)
			continue
		}
		if st.Size() < 1024 {
			t.Errorf("%s is implausibly small (%d bytes)", doc, st.Size())
		}
		if !strings.Contains(string(readme), doc) {
			t.Errorf("README.md does not link %s", doc)
		}
	}
}
