package trace_test

import (
	"bytes"
	"fmt"
	"log"

	"bsdtrace/internal/trace"
)

// A whole-file read, encoded to the binary format and decoded back.
func ExampleWriter() {
	events := []trace.Event{
		{Time: 0, Kind: trace.KindOpen, OpenID: 1, File: 42, User: 7, Mode: trace.ReadOnly, Size: 8192},
		{Time: 120 * trace.Millisecond, Kind: trace.KindClose, OpenID: 1, NewPos: 8192},
	}
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for _, e := range events {
		if err := w.Write(e); err != nil {
			log.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}

	r, err := trace.NewReader(&buf)
	if err != nil {
		log.Fatal(err)
	}
	if err := trace.Each(r, func(e trace.Event) error {
		fmt.Println(e)
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	// Output:
	// 0 open 1 42 7 r 8192
	// 120 close 1 8192
}

// The text format round-trips through ParseEvent.
func ExampleParseEvent() {
	e, err := trace.ParseEvent("500 seek 3 0 4096")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(e.Kind, e.OpenID, e.OldPos, "->", e.NewPos)
	// Output:
	// seek 3 0 -> 4096
}

// A Validator checks the structural invariants the analyses rely on.
func ExampleValidator() {
	events := []trace.Event{
		{Time: 10, Kind: trace.KindClose, OpenID: 99, NewPos: 0}, // never opened
	}
	v := trace.NewValidator(0)
	for _, e := range events {
		v.Check(e)
	}
	fmt.Println(len(v.Errs()), "errors,", v.Finish(), "unclosed")
	// Output:
	// 1 errors, 0 unclosed
}
