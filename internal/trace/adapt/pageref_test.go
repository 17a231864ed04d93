package adapt_test

import (
	"strings"
	"testing"

	"bsdtrace/internal/trace"
	"bsdtrace/internal/trace/adapt"
	"bsdtrace/internal/trace/adapt/adapttest"
	"bsdtrace/internal/trace/sourcetest"
)

const pageSample = `# zipf benchmark excerpt
0, 0
1, 2
0, 1
0, 2
`

func pageFactory(input string) adapttest.Factory {
	return func(t *testing.T) adapt.Source {
		return adapt.NewPageRef(strings.NewReader(input))
	}
}

func TestPageRefConformance(t *testing.T) {
	adapttest.Run(t, pageFactory(pageSample))
}

func TestPageRefEvents(t *testing.T) {
	src := adapt.NewPageRef(strings.NewReader(pageSample))
	got, err := trace.ReadSource(src)
	if err != nil {
		t.Fatal(err)
	}
	want := []trace.Event{
		// "0, 0": read of page 0, time synthesized one tick per record.
		{Time: 0, Kind: trace.KindOpen, OpenID: 1, File: 1, User: 1, Mode: trace.ReadOnly, Size: 4096},
		{Time: 0, Kind: trace.KindClose, OpenID: 1, NewPos: 4096},
		// "1, 2": write of page 2, opens at the previous extent.
		{Time: 1, Kind: trace.KindOpen, OpenID: 2, File: 1, User: 1, Mode: trace.WriteOnly, Size: 4096},
		{Time: 1, Kind: trace.KindSeek, OpenID: 2, OldPos: 0, NewPos: 8192},
		{Time: 1, Kind: trace.KindClose, OpenID: 2, NewPos: 12288},
		// "0, 1": read of page 1, inside the grown extent.
		{Time: 2, Kind: trace.KindOpen, OpenID: 3, File: 1, User: 1, Mode: trace.ReadOnly, Size: 12288},
		{Time: 2, Kind: trace.KindSeek, OpenID: 3, OldPos: 0, NewPos: 4096},
		{Time: 2, Kind: trace.KindClose, OpenID: 3, NewPos: 8192},
		// "0, 2": re-read of the written page.
		{Time: 3, Kind: trace.KindOpen, OpenID: 4, File: 1, User: 1, Mode: trace.ReadOnly, Size: 12288},
		{Time: 3, Kind: trace.KindSeek, OpenID: 4, OldPos: 0, NewPos: 8192},
		{Time: 3, Kind: trace.KindClose, OpenID: 4, NewPos: 12288},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if st := src.Stats(); st.Lines != 5 || st.Records != 4 || st.Skipped != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPageRefErrors(t *testing.T) {
	cases := map[string]string{
		"truncated":     "0 17\n",
		"bad-op":        "2, 17\n",
		"negative-page": "0, -1\n",
		"bad-page":      "0, seventeen\n",
	}
	for name, bad := range cases {
		t.Run(name, func(t *testing.T) {
			input := "0, 1\n" + bad
			sourcetest.RunSticky(t, func(t *testing.T) trace.Source {
				return adapt.NewPageRef(strings.NewReader(input))
			}, 3) // open+seek+close of the good reference
			src := adapt.NewPageRef(strings.NewReader(input))
			_, err := trace.ReadSource(src)
			if err == nil || !strings.Contains(err.Error(), "line 2") {
				t.Fatalf("error %v does not name line 2", err)
			}
		})
	}
}

func TestParsePageRefRoundTrip(t *testing.T) {
	for _, line := range []string{"0, 17", "1, 50000", "0,3", "1,  0"} {
		rec, err := adapt.ParsePageRefLine(line)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		again, err := adapt.ParsePageRefLine(rec.String())
		if err != nil || again != rec {
			t.Fatalf("%q -> %+v -> %q -> %+v (err %v)", line, rec, rec.String(), again, err)
		}
	}
}
