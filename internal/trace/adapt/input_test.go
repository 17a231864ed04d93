package adapt_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bsdtrace/internal/trace"
	"bsdtrace/internal/trace/adapt"
)

// contractTrace is a small validator-clean native trace: n
// open/seek/close runs over five files.
func contractTrace(n int) []trace.Event {
	var ev []trace.Event
	for i := 0; i < n; i++ {
		at, id := trace.Time(10*i), trace.OpenID(i+1)
		ev = append(ev,
			trace.Event{Time: at, Kind: trace.KindOpen, OpenID: id, File: trace.FileID(1 + i%5), User: 1, Mode: trace.ReadOnly, Size: 8192},
			trace.Event{Time: at + 1, Kind: trace.KindSeek, OpenID: id, NewPos: 4096},
			trace.Event{Time: at + 2, Kind: trace.KindClose, OpenID: id, NewPos: 8192})
	}
	return ev
}

// encodeNative writes events as a v1 trace, or as v2 with a checkpoint
// every interval records when interval > 0.
func encodeNative(t *testing.T, events []trace.Event, interval int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	if interval > 0 {
		w = trace.NewWriterV2(&buf, interval)
	}
	for _, e := range events {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestInputContract pins the partial-ingest contract of adapt.Input for
// every reader: native v1, v2 and text, and the three foreign adapters,
// each strict and lenient, over clean and damaged bytes. It pins what is
// emitted, the class, the strict verdict, the lenient budget, and the
// refusal of -text and -lenient for foreign formats.
func TestInputContract(t *testing.T) {
	native := contractTrace(200)
	v1 := encodeNative(t, native, 0)
	v2 := encodeNative(t, native, 64)
	v2Damaged := bytes.Clone(v2)
	for i := len(v2) * 2 / 3; i < len(v2)*2/3+16; i++ {
		v2Damaged[i] ^= 0x55
	}
	var text strings.Builder
	for _, e := range native {
		fmt.Fprintln(&text, e)
	}
	fixture := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	// Every damaged input loses data: the v1 stream ends at its
	// truncation, the v2 stream skips one segment and the repair pass
	// drops the two events that segment orphans, text fails to parse,
	// and each foreign adapter stops at its damaged line.
	cases := []struct {
		name    string
		format  adapt.Format
		text    bool
		data    []byte
		damaged bool

		class     trace.Class
		refused   string // NewInput's error, strict and lenient alike
		events    int    // events a strict input emits
		dropped   int    // of those, the ones a lenient input's repair drops
		strictErr string // the strict drain error or Check verdict
		damage    []string
	}{
		{name: "v1", data: v1, events: len(native)},
		{name: "v1", data: v1[:len(v1)*3/4], damaged: true, events: 461,
			strictErr: "trace: record 461 at offset 3313: corrupt stream: unexpected EOF",
			damage:    []string{"stream truncated at decode error: trace: record 461 at offset 3313: corrupt stream: unexpected EOF"}},
		{name: "v2", data: v2, events: len(native)},
		{name: "v2", data: v2Damaged, damaged: true, events: 536, dropped: 2,
			strictErr: "partial ingest (514 bytes, ~64 records, 1 segments skipped)",
			damage: []string{"degraded ingest: 514 bytes, ~64 records, 1 segments skipped; " +
				"repaired: 536 events: 2 dropped, 0 synthesized, 0 rewritten, ~8192 bytes unattributable"}},
		{name: "text", text: true, data: []byte(text.String()), events: len(native)},
		{name: "text", text: true, data: []byte(text.String() + "garbage\n"), damaged: true,
			refused: "line 601: "},
		{name: "blockcsv", format: adapt.FormatBlockCSV, class: trace.ClassBlock, data: fixture("msr-sample.csv"), events: 80},
		{name: "blockcsv", format: adapt.FormatBlockCSV, class: trace.ClassBlock, data: fixture("msr-truncated.csv"), damaged: true,
			events: 2, strictErr: "line 2: adapt: truncated block record"},
		{name: "pageref", format: adapt.FormatPageRef, class: trace.ClassPage, data: fixture("zipf-sample.txt"), events: 90},
		{name: "pageref", format: adapt.FormatPageRef, class: trace.ClassPage, data: fixture("zipf-negative-page.txt"), damaged: true,
			events: 6, strictErr: "line 3: adapt: bad page number"},
		{name: "strace", format: adapt.FormatStrace, data: fixture("strace-sample.txt"), events: 12},
		{name: "strace", format: adapt.FormatStrace, data: fixture("strace-truncated.txt"), damaged: true,
			events: 1, strictErr: "line 2: adapt: unterminated argument list"},
	}
	for _, c := range cases {
		for _, lenient := range []bool{false, true} {
			name := fmt.Sprintf("%s/damaged=%t/lenient=%t", c.name, c.damaged, lenient)
			t.Run(name, func(t *testing.T) {
				in, err := adapt.NewInput(bytes.NewReader(c.data), c.format, c.text, lenient)
				refused := c.refused
				if lenient && c.format != adapt.FormatBSD {
					refused = "-lenient applies only to -format bsd"
				}
				if refused != "" {
					if err == nil || !strings.Contains(err.Error(), refused) {
						t.Fatalf("NewInput error = %v, want %q", err, refused)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				events, drainErr := trace.ReadSource(in)
				want := c.events
				if lenient {
					want -= c.dropped
				}
				if len(events) != want {
					t.Errorf("emitted %d events, want %d", len(events), want)
				}
				if !c.damaged && c.format == adapt.FormatBSD && !reflect.DeepEqual(events, native) {
					t.Errorf("clean native input changed its events")
				}
				if got := c.format.Class(); got != c.class {
					t.Errorf("class %v, want %v", got, c.class)
				}
				if st := in.Stats(); c.format != adapt.FormatBSD && st.Events != int64(len(events)) {
					t.Errorf("import accounting counts %d events, emitted %d", st.Events, len(events))
				}

				verdict := in.Check()
				if verdict == nil {
					verdict = drainErr
				}
				damage := in.Damage()
				if lenient {
					if verdict != nil {
						t.Errorf("lenient input failed: %v", verdict)
					}
					if !reflect.DeepEqual(damage, c.damage) {
						t.Errorf("damage = %q, want %q", damage, c.damage)
					}
					return
				}
				if len(damage) != 0 {
					t.Errorf("strict input reported damage %q", damage)
				}
				switch {
				case c.strictErr == "" && verdict != nil:
					t.Errorf("clean strict input failed: %v", verdict)
				case c.strictErr != "" && (verdict == nil || !strings.Contains(verdict.Error(), c.strictErr)):
					t.Errorf("strict verdict = %v, want %q", verdict, c.strictErr)
				}
			})
		}
	}
	for _, f := range []adapt.Format{adapt.FormatBlockCSV, adapt.FormatPageRef, adapt.FormatStrace} {
		if _, err := adapt.NewInput(strings.NewReader(""), f, true, false); err == nil ||
			err.Error() != "-text applies only to -format bsd" {
			t.Errorf("%v -text: error = %v", f, err)
		}
	}
}
