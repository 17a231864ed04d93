// Package report renders the reproduction's tables and figures as text:
// aligned tables in the style of the paper's Tables I-VII and ASCII line
// charts standing in for Figures 1-7. The builders in paper.go map
// analyzer and cachesim results onto the exact rows and series the paper
// reports.
package report

import (
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// Table is a titled, aligned text table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	// Note is printed beneath the table, wrapped like the paper's table
	// captions.
	Note string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render writes the table. Columns are sized to their widest cell; the
// first column is left-aligned, the rest right-aligned (numbers).
func (t *Table) Render(w io.Writer) error {
	cols := len(t.Header)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	// Cells are measured in runes, not bytes, so non-ASCII labels (µs,
	// ±, box-drawing) keep the columns aligned.
	widths := make([]int, cols)
	measure := func(r []string) {
		for i, c := range r {
			if n := utf8.RuneCountInString(c); n > widths[i] {
				widths[i] = n
			}
		}
	}
	measure(t.Header)
	for _, r := range t.Rows {
		measure(r)
	}
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
		b.WriteString(strings.Repeat("=", min(total, utf8.RuneCountInString(t.Title))))
		b.WriteByte('\n')
	}
	writeRow := func(r []string) {
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(r) {
				c = r[i]
			}
			// Pad by rune count manually; fmt's %*s pads by bytes and
			// would misalign multi-byte cells.
			pad := widths[i] - utf8.RuneCountInString(c)
			if i == 0 {
				b.WriteString(c)
				b.WriteString(strings.Repeat(" ", pad+2))
			} else {
				b.WriteString(strings.Repeat(" ", pad))
				b.WriteString(c)
				b.WriteString("  ")
			}
		}
		b.WriteByte('\n')
	}
	if len(t.Header) > 0 {
		writeRow(t.Header)
		b.WriteString(strings.Repeat("-", total))
		b.WriteByte('\n')
	}
	for _, r := range t.Rows {
		writeRow(r)
	}
	if t.Note != "" {
		b.WriteString(wrap(t.Note, 72))
		b.WriteByte('\n')
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// wrap reflows text to the given width.
func wrap(s string, width int) string {
	words := strings.Fields(s)
	if len(words) == 0 {
		return ""
	}
	var b strings.Builder
	line := 0
	for i, w := range words {
		if i > 0 {
			if line+1+len(w) > width {
				b.WriteByte('\n')
				line = 0
			} else {
				b.WriteByte(' ')
				line++
			}
		}
		b.WriteString(w)
		line += len(w)
	}
	return b.String()
}

// Common cell formatters used by the builders.

// Pct formats a fraction as a percentage with one decimal.
func Pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }

// Count formats an integer with thousands separators, as the paper's
// tables print event counts.
func Count(n int64) string {
	s := fmt.Sprintf("%d", n)
	if n < 0 {
		return s
	}
	var parts []string
	for len(s) > 3 {
		parts = append([]string{s[len(s)-3:]}, parts...)
		s = s[:len(s)-3]
	}
	parts = append([]string{s}, parts...)
	return strings.Join(parts, ",")
}

// Size formats a byte count in the paper's units (kbytes/Mbytes).
func Size(n int64) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%d Mbytes", n>>20)
	case n >= 1<<20:
		return fmt.Sprintf("%.1f Mbytes", float64(n)/(1<<20))
	default:
		return fmt.Sprintf("%d kbytes", n>>10)
	}
}

// MB formats a byte count as megabytes with one decimal.
func MB(n int64) string { return fmt.Sprintf("%.1f", float64(n)/(1<<20)) }
