package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The text trace format is one event per line, whitespace-separated, with
// positional fields per kind:
//
//	<time_ms> create   <openid> <fileid> <userid> <mode> <size>
//	<time_ms> open     <openid> <fileid> <userid> <mode> <size>
//	<time_ms> close    <openid> <finalpos>
//	<time_ms> seek     <openid> <oldpos> <newpos>
//	<time_ms> unlink   <fileid>
//	<time_ms> truncate <fileid> <newlen>
//	<time_ms> execve   <fileid> <userid> <size>
//
// where <mode> is one of r, w, rw. Blank lines and lines starting with '#'
// are ignored on input. The format is for human inspection and tests; the
// binary format is the interchange format.

func modeToken(m Mode) string {
	switch m {
	case ReadOnly:
		return "r"
	case WriteOnly:
		return "w"
	case ReadWrite:
		return "rw"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

func parseModeToken(s string) (Mode, error) {
	switch s {
	case "r":
		return ReadOnly, nil
	case "w":
		return WriteOnly, nil
	case "rw":
		return ReadWrite, nil
	}
	return 0, fmt.Errorf("trace: bad mode %s", clip(s))
}

func formatEvent(e Event) string {
	switch e.Kind {
	case KindCreate, KindOpen:
		return fmt.Sprintf("%d %s %d %d %d %s %d",
			e.Time, e.Kind, e.OpenID, e.File, e.User, modeToken(e.Mode), e.Size)
	case KindClose:
		return fmt.Sprintf("%d close %d %d", e.Time, e.OpenID, e.NewPos)
	case KindSeek:
		return fmt.Sprintf("%d seek %d %d %d", e.Time, e.OpenID, e.OldPos, e.NewPos)
	case KindUnlink:
		return fmt.Sprintf("%d unlink %d", e.Time, e.File)
	case KindTruncate:
		return fmt.Sprintf("%d truncate %d %d", e.Time, e.File, e.Size)
	case KindExec:
		return fmt.Sprintf("%d execve %d %d %d", e.Time, e.File, e.User, e.Size)
	}
	return fmt.Sprintf("%d %s", e.Time, e.Kind)
}

// clip quotes s for an error message, cut to a bounded prefix: a
// binary file read as text is one huge "line".
func clip(s string) string {
	const max = 64
	if len(s) > max {
		return fmt.Sprintf("%q...", s[:max])
	}
	return fmt.Sprintf("%q", s)
}

// parseInt parses a decimal field. Its error leaves the field out, as
// the caller's message quotes the line.
func parseInt(s string) (int64, error) {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, err.(*strconv.NumError).Err
	}
	return v, nil
}

// ParseEvent parses one line of the text format.
func ParseEvent(line string) (Event, error) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Event{}, fmt.Errorf("trace: short line %s", clip(line))
	}
	ms, err := parseInt(fields[0])
	if err != nil {
		return Event{}, fmt.Errorf("trace: bad time in %s: %v", clip(line), err)
	}
	e := Event{Time: Time(ms)}
	args := fields[2:]
	n := func(i int) (int64, error) {
		if i >= len(args) {
			return 0, fmt.Errorf("trace: missing field %d in %s", i, clip(line))
		}
		v, err := parseInt(args[i])
		if err != nil {
			return 0, fmt.Errorf("trace: bad field %d in %s: %v", i, clip(line), err)
		}
		return v, nil
	}
	need := func(want int) error {
		if len(args) != want {
			return fmt.Errorf("trace: %s event needs %d fields, got %d in %s", fields[1], want, len(args), clip(line))
		}
		return nil
	}
	switch fields[1] {
	case "create", "open":
		if fields[1] == "create" {
			e.Kind = KindCreate
		} else {
			e.Kind = KindOpen
		}
		if err := need(5); err != nil {
			return Event{}, err
		}
		open, err1 := n(0)
		file, err2 := n(1)
		user, err3 := n(2)
		size, err4 := n(4)
		mode, err5 := parseModeToken(args[3])
		for _, err := range []error{err1, err2, err3, err4, err5} {
			if err != nil {
				return Event{}, err
			}
		}
		e.OpenID, e.File, e.User, e.Mode, e.Size = OpenID(open), FileID(file), UserID(user), mode, size
	case "close":
		e.Kind = KindClose
		if err := need(2); err != nil {
			return Event{}, err
		}
		open, err1 := n(0)
		pos, err2 := n(1)
		if err1 != nil || err2 != nil {
			return Event{}, fmt.Errorf("trace: bad close %s", clip(line))
		}
		e.OpenID, e.NewPos = OpenID(open), pos
	case "seek":
		e.Kind = KindSeek
		if err := need(3); err != nil {
			return Event{}, err
		}
		open, err1 := n(0)
		oldPos, err2 := n(1)
		newPos, err3 := n(2)
		if err1 != nil || err2 != nil || err3 != nil {
			return Event{}, fmt.Errorf("trace: bad seek %s", clip(line))
		}
		e.OpenID, e.OldPos, e.NewPos = OpenID(open), oldPos, newPos
	case "unlink":
		e.Kind = KindUnlink
		if err := need(1); err != nil {
			return Event{}, err
		}
		file, err := n(0)
		if err != nil {
			return Event{}, err
		}
		e.File = FileID(file)
	case "truncate":
		e.Kind = KindTruncate
		if err := need(2); err != nil {
			return Event{}, err
		}
		file, err1 := n(0)
		size, err2 := n(1)
		if err1 != nil || err2 != nil {
			return Event{}, fmt.Errorf("trace: bad truncate %s", clip(line))
		}
		e.File, e.Size = FileID(file), size
	case "execve":
		e.Kind = KindExec
		if err := need(3); err != nil {
			return Event{}, err
		}
		file, err1 := n(0)
		user, err2 := n(1)
		size, err3 := n(2)
		if err1 != nil || err2 != nil || err3 != nil {
			return Event{}, fmt.Errorf("trace: bad execve %s", clip(line))
		}
		e.File, e.User, e.Size = FileID(file), UserID(user), size
	default:
		return Event{}, fmt.Errorf("trace: unknown event kind %s", clip(fields[1]))
	}
	return e, nil
}

// ReadText parses a text-format trace. Blank lines and '#' comments are
// skipped. Input that starts with the binary format's magic is refused
// whole.
func ReadText(r io.Reader) ([]Event, error) {
	br := bufio.NewReader(r)
	if head, _ := br.Peek(len(magic)); bytes.Equal(head, magic[:]) {
		return nil, fmt.Errorf("trace: input is a binary trace (magic %q), not the text format", magic[:])
	}
	sc := bufio.NewScanner(br)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var out []Event
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		e, err := ParseEvent(line)
		if err != nil {
			return out, fmt.Errorf("line %d: %w", lineNo, err)
		}
		out = append(out, e)
	}
	return out, sc.Err()
}
