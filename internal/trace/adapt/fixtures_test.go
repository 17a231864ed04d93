package adapt_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bsdtrace/internal/trace"
	"bsdtrace/internal/trace/adapt"
	"bsdtrace/internal/trace/adapt/adapttest"
)

// The committed fixture corpus: hand-checked samples of each foreign
// format plus malformed variants. The fixture files themselves are
// hand-written and never regenerated; the .golden.json files beside
// them snapshot exactly what the adapter produced (class, events,
// stats, terminal error) and are rewritten with BSDTRACE_REGEN_FIXTURES=1.
var fixtureCorpus = []struct {
	file   string
	format adapt.Format
	// wantErr marks malformed fixtures whose parse must end in a
	// positioned terminal error rather than clean EOF.
	wantErr bool
}{
	{file: "msr-sample.csv", format: adapt.FormatBlockCSV},
	{file: "zipf-sample.txt", format: adapt.FormatPageRef},
	{file: "strace-sample.txt", format: adapt.FormatStrace},
	{file: "msr-truncated.csv", format: adapt.FormatBlockCSV, wantErr: true},
	{file: "msr-bad-timestamp.csv", format: adapt.FormatBlockCSV, wantErr: true},
	{file: "msr-negative-offset.csv", format: adapt.FormatBlockCSV, wantErr: true},
	{file: "zipf-negative-page.txt", format: adapt.FormatPageRef, wantErr: true},
	{file: "strace-truncated.txt", format: adapt.FormatStrace, wantErr: true},
	// Unknown syscalls are skipped noise, not damage: this one parses
	// to the end with a nonzero skip count.
	{file: "strace-unknown-syscall.txt", format: adapt.FormatStrace},
}

// fixtureResult is the golden snapshot schema.
type fixtureResult struct {
	Format string        `json:"format"`
	Class  string        `json:"class"`
	Events []trace.Event `json:"events"`
	Stats  adapt.Stats   `json:"stats"`
	Error  string        `json:"error,omitempty"`
}

func parseFixture(t *testing.T, file string, format adapt.Format) fixtureResult {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatalf("%v (fixture files are hand-written and committed)", err)
	}
	src, err := adapt.NewSource(format, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	res := fixtureResult{Format: format.String(), Class: src.Class().String()}
	res.Events, err = trace.ReadSource(src)
	if err != nil {
		res.Error = err.Error()
	}
	res.Stats = src.Stats()
	return res
}

func goldenPath(file string) string {
	base := strings.TrimSuffix(file, filepath.Ext(file))
	return filepath.Join("testdata", base+".golden.json")
}

// TestRegenAdapterFixtures rewrites the .golden.json snapshots; it only
// runs when BSDTRACE_REGEN_FIXTURES=1, so the goldens stay stable.
func TestRegenAdapterFixtures(t *testing.T) {
	if os.Getenv("BSDTRACE_REGEN_FIXTURES") != "1" {
		t.Skip("set BSDTRACE_REGEN_FIXTURES=1 to rewrite golden snapshots")
	}
	for _, fx := range fixtureCorpus {
		res := parseFixture(t, fx.file, fx.format)
		blob, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		blob = append(blob, '\n')
		if err := os.WriteFile(goldenPath(fx.file), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAdapterFixtureCorpus pins every committed fixture to its golden
// snapshot: the exact events, statistics, and (for malformed variants)
// the exact positioned error message.
func TestAdapterFixtureCorpus(t *testing.T) {
	for _, fx := range fixtureCorpus {
		t.Run(fx.file, func(t *testing.T) {
			res := parseFixture(t, fx.file, fx.format)

			if fx.wantErr {
				if res.Error == "" {
					t.Fatalf("malformed fixture parsed clean: %+v", res.Stats)
				}
				if !strings.Contains(res.Error, "line ") {
					t.Errorf("terminal error %q carries no line position", res.Error)
				}
			} else if res.Error != "" {
				t.Fatalf("clean fixture ended in error: %v", res.Error)
			}
			if fx.file == "strace-unknown-syscall.txt" && res.Stats.Skipped == 0 {
				t.Errorf("unknown-syscall fixture skipped nothing: %+v", res.Stats)
			}

			blob, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			blob = append(blob, '\n')
			want, err := os.ReadFile(goldenPath(fx.file))
			if err != nil {
				t.Fatalf("%v (regenerate with BSDTRACE_REGEN_FIXTURES=1)", err)
			}
			if !bytes.Equal(blob, want) {
				t.Errorf("parse result drifted from golden snapshot %s (regenerate with BSDTRACE_REGEN_FIXTURES=1 and review the diff)", goldenPath(fx.file))
			}
		})
	}
}

// TestFixtureSamplesConform runs the full conformance suite over the
// three clean committed samples, so the corpus and the laws can never
// drift apart.
func TestFixtureSamplesConform(t *testing.T) {
	samples := map[string]adapt.Format{
		"msr-sample.csv":    adapt.FormatBlockCSV,
		"zipf-sample.txt":   adapt.FormatPageRef,
		"strace-sample.txt": adapt.FormatStrace,
	}
	for file, format := range samples {
		t.Run(file, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", file))
			if err != nil {
				t.Fatal(err)
			}
			adapttest.Run(t, func(t *testing.T) adapt.Source {
				src, err := adapt.NewSource(format, bytes.NewReader(data))
				if err != nil {
					t.Fatal(err)
				}
				return src
			})
		})
	}
}
