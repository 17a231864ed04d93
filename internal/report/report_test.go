package report

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"bsdtrace/internal/analyzer"
	"bsdtrace/internal/cachesim"
	"bsdtrace/internal/trace"
	"bsdtrace/internal/workload"
	"bsdtrace/internal/xfer"
)

func TestTableRender(t *testing.T) {
	tab := &Table{
		Title:  "Table X. Test.",
		Header: []string{"Name", "Value"},
		Note:   "A note that should be wrapped if it runs long enough to need wrapping across lines.",
	}
	tab.AddRow("alpha", "1")
	tab.AddRow("beta", "22")
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table X. Test.", "Name", "alpha", "22", "A note"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(out, "\n")
	// Data rows align: "1" and "22" end at the same column.
	var a, b string
	for _, l := range lines {
		if strings.Contains(l, "alpha") {
			a = l
		}
		if strings.Contains(l, "beta") {
			b = l
		}
	}
	if len(strings.TrimRight(a, " ")) != len(strings.TrimRight(b, " ")) {
		t.Errorf("columns not aligned:\n%q\n%q", a, b)
	}
}

func TestTableRaggedRows(t *testing.T) {
	tab := &Table{Header: []string{"A"}}
	tab.AddRow("x", "extra", "cells")
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "extra") {
		t.Errorf("ragged row dropped cells")
	}
}

func TestFormatters(t *testing.T) {
	if got := Pct(0.1234); got != "12.3%" {
		t.Errorf("Pct = %q", got)
	}
	if got := Count(1234567); got != "1,234,567" {
		t.Errorf("Count = %q", got)
	}
	if got := Count(42); got != "42" {
		t.Errorf("Count small = %q", got)
	}
	if got := Size(4096); got != "4 kbytes" {
		t.Errorf("Size KB = %q", got)
	}
	if got := Size(4 << 20); got != "4 Mbytes" {
		t.Errorf("Size MB = %q", got)
	}
	if got := Size(1536 << 10); got != "1.5 Mbytes" {
		t.Errorf("Size 1.5MB = %q", got)
	}
	if got := MB(1 << 20); got != "1.0" {
		t.Errorf("MB = %q", got)
	}
}

func TestChartRender(t *testing.T) {
	c := &Chart{
		Title:  "Test chart",
		XLabel: "x",
		YLabel: "y",
		YMax:   100,
		Series: []Series{
			{Name: "one", Points: []XY{{1, 10}, {10, 50}, {100, 90}}},
			{Name: "two", Points: []XY{{1, 90}, {100, 10}}},
		},
		LogX: true,
	}
	var buf bytes.Buffer
	if err := c.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Test chart", "one", "two", "*", "+", "log scale"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q:\n%s", want, out)
		}
	}
}

func TestChartEmpty(t *testing.T) {
	c := &Chart{Title: "empty"}
	var buf bytes.Buffer
	if err := c.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no data") {
		t.Errorf("empty chart should say so")
	}
}

func TestChartSinglePoint(t *testing.T) {
	c := &Chart{Series: []Series{{Name: "p", Points: []XY{{5, 5}}}}}
	var buf bytes.Buffer
	if err := c.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

// Integration: every paper builder renders non-trivially from a real
// generated trace.
func TestPaperBuilders(t *testing.T) {
	res, err := workload.Generate(workload.Config{Profile: "A5", Seed: 9, Duration: 30 * trace.Minute})
	if err != nil {
		t.Fatal(err)
	}
	a := analyzer.Analyze(res.Events, analyzer.Options{})
	tr := Traces{Names: []string{"A5"}, Analyses: []*analyzer.Analysis{a}}

	sizes := []int64{cachesim.UnixCacheSize, 1 << 20, 2 << 20, 4 << 20}
	pols := cachesim.PaperPolicies()
	tape, err := xfer.NewTape(res.Events)
	if err != nil {
		t.Fatal(err)
	}
	policy, err := cachesim.PolicySweepTape(tape, 4096, sizes, pols)
	if err != nil {
		t.Fatal(err)
	}
	block, err := cachesim.BlockSizeSweepTape(tape, []int64{4096, 8192, 16384}, []int64{400 << 10, 2 << 20, 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	paging, err := cachesim.PagingSweepTape(tape, 4096, sizes)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	render := func(name string, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	render("I", TableI(a, policy, block).Render(&buf))
	render("III", TableIII(tr).Render(&buf))
	render("IV", TableIV(tr).Render(&buf))
	render("V", TableV(tr).Render(&buf))
	render("intervals", EventIntervalTable(tr).Render(&buf))
	render("sharing", SharingTable(tr).Render(&buf))
	render("VI", TableVI(sizes, pols, policy).Render(&buf))
	render("VII", TableVII(block).Render(&buf))
	for _, ch := range Figure1(tr) {
		render("fig1", ch.Render(&buf))
	}
	for _, ch := range Figure2(tr) {
		render("fig2", ch.Render(&buf))
	}
	render("fig3", Figure3(tr).Render(&buf))
	for _, ch := range Figure4(tr) {
		render("fig4", ch.Render(&buf))
	}
	render("fig5", Figure5(sizes, pols, policy).Render(&buf))
	render("fig6", Figure6(block).Render(&buf))
	render("fig7", Figure7(sizes, paging).Render(&buf))
	render("residency", ResidencyTable(policy[3][3]).Render(&buf))

	out := buf.String()
	for _, want := range []string{
		"Table I.", "Table III.", "Table IV.", "Table V.",
		"Table VI.", "Table VII.",
		"Figure 1(a)", "Figure 2(b)", "Figure 3.", "Figure 4(a)",
		"Figure 5.", "Figure 6.", "Figure 7.",
		"Write-Through", "Delayed Write", "A5", "Cross-user file sharing",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("combined report missing %q", want)
		}
	}
	if len(out) < 4000 {
		t.Errorf("report suspiciously short: %d bytes", len(out))
	}
}

func TestBestBlock(t *testing.T) {
	b := &cachesim.BlockSizeSweepResult{
		BlockSizes: []int64{4096, 8192},
		CacheSizes: []int64{1 << 20},
		Accesses:   []int64{100, 50},
		Results: [][]*cachesim.Result{
			{{DiskReads: 30}},
			{{DiskReads: 20}},
		},
	}
	if got := bestBlock(b, 0); got != 8192 {
		t.Errorf("bestBlock = %d, want 8192", got)
	}
}

func TestChartWriteCSV(t *testing.T) {
	c := &Chart{Series: []Series{
		{Name: "a", Points: []XY{{1, 10}, {2, 20}}},
		{Name: "b", Points: []XY{{1.5, 0.25}}},
	}}
	var buf bytes.Buffer
	if err := c.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "series,x,y\na,1,10\na,2,20\nb,1.5,0.25\n"
	if buf.String() != want {
		t.Errorf("CSV = %q, want %q", buf.String(), want)
	}
}

func TestTableWriteCSV(t *testing.T) {
	tab := &Table{Header: []string{"k", "v"}}
	tab.AddRow("x", "1,5") // embedded comma must be quoted
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "k,v\nx,\"1,5\"\n"
	if buf.String() != want {
		t.Errorf("CSV = %q, want %q", buf.String(), want)
	}
}

func TestDataSetWriteDir(t *testing.T) {
	var d DataSet
	d.AddChart("fig", &Chart{Series: []Series{{Name: "s", Points: []XY{{1, 2}}}}})
	tab := &Table{Header: []string{"a"}}
	tab.AddRow("1")
	d.AddTable("tab", tab)
	dir := t.TempDir() + "/out"
	paths, err := d.WriteDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("paths = %v", paths)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil || len(data) == 0 {
			t.Errorf("%s: %v (%d bytes)", p, err, len(data))
		}
	}
}
