package analyzer

import (
	"errors"
	"testing"

	"bsdtrace/internal/trace"
)

func TestMetricSetClasses(t *testing.T) {
	cases := []struct {
		set   *MetricSet
		class trace.Class
		ok    bool
	}{
		{&LogicalMetrics, trace.ClassLogical, true},
		{&LogicalMetrics, trace.ClassBlock, false},
		{&LogicalMetrics, trace.ClassPage, false},
		{&TransferMetrics, trace.ClassLogical, true},
		{&TransferMetrics, trace.ClassBlock, true},
		{&TransferMetrics, trace.ClassPage, true},
	}
	for _, c := range cases {
		if got := c.set.Supports(c.class); got != c.ok {
			t.Errorf("%s.Supports(%v) = %v, want %v", c.set.Name, c.class, got, c.ok)
		}
		section := c.set.Sections[0]
		err := CheckSection(section, c.class)
		if c.ok && err != nil {
			t.Errorf("CheckSection(%s, %v) = %v, want nil", section, c.class, err)
		}
		if !c.ok {
			if !errors.Is(err, ErrUnsupportedClass) {
				t.Errorf("CheckSection(%s, %v) = %v, want ErrUnsupportedClass", section, c.class, err)
			}
			var uce *UnsupportedClassError
			if !errors.As(err, &uce) || uce.Class != c.class {
				t.Errorf("CheckSection(%s, %v) is not a typed UnsupportedClassError carrying the class", section, c.class)
			}
		}
	}
}

func TestSectionOwnership(t *testing.T) {
	// Every section belongs to exactly one set, and the CLI's historical
	// -only names are all claimed.
	for _, s := range LogicalMetrics.Sections {
		if TransferMetrics.HasSection(s) {
			t.Errorf("section %q claimed by both metric sets", s)
		}
		if SectionMetrics(s) != &LogicalMetrics {
			t.Errorf("SectionMetrics(%q) is not LogicalMetrics", s)
		}
	}
	for _, s := range TransferMetrics.Sections {
		if SectionMetrics(s) != &TransferMetrics {
			t.Errorf("SectionMetrics(%q) is not TransferMetrics", s)
		}
	}
	if SectionMetrics("tableIX") != nil {
		t.Error("SectionMetrics invented an owner for an unknown section")
	}
	// Matching is case-insensitive, like the CLI's -only flag.
	if !LogicalMetrics.HasSection("TABLEV") {
		t.Error("section matching is case-sensitive")
	}
}

func TestCheckSection(t *testing.T) {
	if err := CheckSection("tableV", trace.ClassLogical); err != nil {
		t.Errorf("tableV on logical trace: %v", err)
	}
	if err := CheckSection("tableVI", trace.ClassBlock); err != nil {
		t.Errorf("tableVI on block trace: %v", err)
	}
	err := CheckSection("tableV", trace.ClassBlock)
	if !errors.Is(err, ErrUnsupportedClass) {
		t.Errorf("tableV on block trace = %v, want ErrUnsupportedClass", err)
	}
	if err := CheckSection("nonsense", trace.ClassLogical); err == nil || errors.Is(err, ErrUnsupportedClass) {
		t.Errorf("unknown section = %v, want a plain unknown-section error", err)
	}
}
