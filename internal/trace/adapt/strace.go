package adapt

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"bsdtrace/internal/trace"
)

// Strace-shaped syscall logs carry real logical structure, so unlike the
// block formats they translate almost one-to-one into the native
// vocabulary:
//
//	open/openat/creat  ->  open or create (fd return value starts a session)
//	read/write         ->  no event: the implicit position advances by the
//	                       return value, exactly the paper's no-read-write
//	                       model; the bytes surface through later seek and
//	                       close positions
//	pread64/pwrite64   ->  a synthesized seek when the offset differs from
//	                       the implicit position, then a positional advance
//	lseek              ->  seek (the return value is the new absolute position)
//	close              ->  close with the final implicit position
//	unlink/unlinkat    ->  unlink (the path's current file incarnation dies)
//	truncate/ftruncate ->  truncate
//	execve             ->  execve
//
// Lines the adapter cannot use — signal deliveries, process exits,
// unfinished/resumed split lines, unknown syscalls, failed calls, and
// operations on fds it never saw opened (a log usually starts with
// stdin/stdout already open) — are skipped and counted, never fatal.
// Lines that name a handled syscall but do not parse are fatal: they
// mean the log is damaged, not merely chatty.
//
// Paths map to FileIDs in first-appearance order; an unlink retires the
// incarnation, so re-creating the path allocates a fresh FileID (native
// FileIDs are never reused). Pids map to UserIDs the same way. File
// sizes are learned from observed positions, so a later open records a
// useful size-at-open.

// Syscall is one parsed strace line for a handled syscall. Token fields
// (When, Buf, Flags, Whence, Err) are kept verbatim so String can
// re-render the line and re-parsing yields an identical Syscall (the
// fuzz round-trip law).
type Syscall struct {
	// Pid is the leading process id, or -1 when the log has none.
	Pid int64
	// When is the verbatim timestamp token ("14:32:05.123456" or
	// "1700000000.123456"), empty when the log has none.
	When string
	// Name is the syscall name ("openat", "read", ...).
	Name string
	// Path is the quoted path argument, without quotes, escapes kept
	// verbatim (open family, unlink family, truncate, execve).
	Path string
	// FD is the file-descriptor argument, or -1 when the call has none.
	FD int64
	// Buf is the verbatim buffer argument of read/write/pread64/pwrite64
	// (usually a quoted excerpt or "...").
	Buf string
	// Flags is the verbatim argument tail after the path: open flags and
	// mode, creat mode, unlinkat flags, execve argv+envp.
	Flags string
	// Count is the byte-count argument of read/write/pread64/pwrite64.
	Count int64
	// Offset is the offset argument of lseek/pread64/pwrite64 and the
	// length argument of truncate/ftruncate.
	Offset int64
	// Whence is the verbatim lseek whence token ("SEEK_SET", ...).
	Whence string
	// Ret is the return value; negative means the call failed.
	Ret int64
	// Err is the verbatim tail after the return value, usually the errno
	// name and description of a failed call.
	Err string
}

// String renders the syscall back into an strace line. The arguments
// are laid out per syscall name, matching what ParseStraceLine consumed.
func (s Syscall) String() string {
	var b strings.Builder
	if s.Pid >= 0 {
		fmt.Fprintf(&b, "%d  ", s.Pid)
	}
	if s.When != "" {
		b.WriteString(s.When)
		b.WriteByte(' ')
	}
	b.WriteString(s.Name)
	b.WriteByte('(')
	// Paths render verbatim between quotes (not %q): the parser kept the
	// original escapes, and re-escaping them would break the round trip.
	quoted := func(path string) string { return `"` + path + `"` }
	switch s.Name {
	case "open", "creat":
		b.WriteString(quoted(s.Path))
		if s.Flags != "" {
			b.WriteString(", ")
			b.WriteString(s.Flags)
		}
	case "openat":
		b.WriteString("AT_FDCWD, ")
		b.WriteString(quoted(s.Path))
		if s.Flags != "" {
			b.WriteString(", ")
			b.WriteString(s.Flags)
		}
	case "read", "write":
		fmt.Fprintf(&b, "%d, %s, %d", s.FD, s.Buf, s.Count)
	case "pread64", "pwrite64":
		fmt.Fprintf(&b, "%d, %s, %d, %d", s.FD, s.Buf, s.Count, s.Offset)
	case "lseek":
		fmt.Fprintf(&b, "%d, %d, %s", s.FD, s.Offset, s.Whence)
	case "close":
		fmt.Fprintf(&b, "%d", s.FD)
	case "unlink":
		b.WriteString(quoted(s.Path))
	case "unlinkat":
		b.WriteString("AT_FDCWD, ")
		b.WriteString(quoted(s.Path))
		if s.Flags != "" {
			b.WriteString(", ")
			b.WriteString(s.Flags)
		}
	case "truncate":
		fmt.Fprintf(&b, "%s, %d", quoted(s.Path), s.Offset)
	case "ftruncate":
		fmt.Fprintf(&b, "%d, %d", s.FD, s.Offset)
	case "execve":
		b.WriteString(quoted(s.Path))
		if s.Flags != "" {
			b.WriteString(", ")
			b.WriteString(s.Flags)
		}
	}
	fmt.Fprintf(&b, ") = %d", s.Ret)
	if s.Err != "" {
		b.WriteByte(' ')
		b.WriteString(s.Err)
	}
	return b.String()
}

// ParseStraceLine parses one strace output line. ok is false for lines
// the adapter ignores by design (blanks, signals, exits, split lines,
// unknown syscalls, detached "?" returns); err is non-nil for lines
// that name a handled syscall but are damaged.
func ParseStraceLine(line string) (s Syscall, ok bool, err error) {
	s = Syscall{Pid: -1, FD: -1}
	rest := strings.TrimSpace(line)
	switch {
	case rest == "",
		strings.HasPrefix(rest, "---"), // signal delivery
		strings.HasPrefix(rest, "+++"), // process exit
		strings.Contains(rest, "<unfinished"),
		strings.Contains(rest, "resumed>"):
		return Syscall{}, false, nil
	}

	// Leading pid (bare integer token), then optional timestamp token.
	if tok, tail, found := cutToken(rest); found && isAllDigits(tok) {
		s.Pid, _ = strconv.ParseInt(tok, 10, 64)
		rest = tail
	}
	if tok, tail, found := cutToken(rest); found && isTimeToken(tok) {
		if _, terr := parseStraceTime(tok); terr != nil {
			return Syscall{}, false, fmt.Errorf("adapt: bad timestamp %q in %q", tok, line)
		}
		s.When = tok
		rest = tail
	}

	paren := strings.IndexByte(rest, '(')
	if paren <= 0 {
		return Syscall{}, false, fmt.Errorf("adapt: not a syscall line: %q", line)
	}
	s.Name = rest[:paren]
	if !isIdentifier(s.Name) {
		return Syscall{}, false, fmt.Errorf("adapt: bad syscall name %q in %q", s.Name, line)
	}
	if !handledSyscalls[s.Name] {
		return Syscall{}, false, nil
	}

	argStr, tail, aerr := scanArgs(rest[paren+1:])
	if aerr != nil {
		return Syscall{}, false, fmt.Errorf("adapt: %s in %q", aerr, line)
	}
	args := splitArgs(argStr)

	// Return value: ") = ret [errno (description)]".
	tail = strings.TrimSpace(tail)
	retStr, errTail, found := strings.Cut(strings.TrimPrefix(tail, "="), " ")
	if !strings.HasPrefix(tail, "=") {
		return Syscall{}, false, fmt.Errorf("adapt: missing return value in %q", line)
	}
	retStr = strings.TrimSpace(retStr)
	if retStr == "" && found {
		// "=  ret" with extra spaces.
		retStr, errTail, _ = strings.Cut(strings.TrimSpace(errTail), " ")
	}
	if retStr == "?" {
		return Syscall{}, false, nil // detached before return
	}
	s.Ret, err = strconv.ParseInt(retStr, 10, 64)
	if err != nil || s.Ret > maxIOOffset {
		return Syscall{}, false, fmt.Errorf("adapt: bad return value %q in %q", retStr, line)
	}
	s.Err = strings.TrimSpace(errTail)

	if err := s.takeArgs(args); err != nil {
		return Syscall{}, false, fmt.Errorf("adapt: %s in %q", err, line)
	}
	return s, true, nil
}

// handledSyscalls is the set of syscall names the adapter translates.
// Anything else is skipped, not an error: real logs are full of mmap,
// stat, futex, and friends.
var handledSyscalls = map[string]bool{
	"open": true, "openat": true, "creat": true,
	"read": true, "write": true, "pread64": true, "pwrite64": true,
	"lseek": true, "close": true,
	"unlink": true, "unlinkat": true,
	"truncate": true, "ftruncate": true,
	"execve": true,
}

// takeArgs distributes the split argument tokens into the per-name
// fields.
func (s *Syscall) takeArgs(args []string) error {
	need := func(n int) error {
		if len(args) < n {
			return fmt.Errorf("truncated %s: %d args, want at least %d", s.Name, len(args), n)
		}
		return nil
	}
	switch s.Name {
	case "openat", "unlinkat":
		if err := need(2); err != nil {
			return err
		}
		if args[0] != "AT_FDCWD" {
			return fmt.Errorf("unsupported %s dirfd %q", s.Name, args[0])
		}
		args = args[1:]
		fallthrough
	case "open", "creat", "unlink", "execve":
		if err := need(1); err != nil {
			return err
		}
		path, perr := unquote(args[0])
		if perr != nil {
			return fmt.Errorf("bad path %s", perr)
		}
		s.Path = path
		s.Flags = strings.Join(args[1:], ", ")
		if s.Name == "unlink" && s.Flags != "" {
			return fmt.Errorf("trailing unlink args %q", s.Flags)
		}
	case "read", "write", "pread64", "pwrite64":
		n := 3
		if s.Name == "pread64" || s.Name == "pwrite64" {
			n = 4
		}
		if err := need(n); err != nil {
			return err
		}
		if len(args) != n {
			return fmt.Errorf("trailing %s args", s.Name)
		}
		var err error
		if s.FD, err = parseNonNeg(args[0]); err != nil {
			return fmt.Errorf("bad fd %q", args[0])
		}
		s.Buf = args[1]
		if s.Count, err = parseNonNeg(args[2]); err != nil {
			return fmt.Errorf("bad count %q", args[2])
		}
		if n == 4 {
			if s.Offset, err = parseNonNeg(args[3]); err != nil {
				return fmt.Errorf("bad offset %q", args[3])
			}
		}
	case "lseek":
		if err := need(3); err != nil {
			return err
		}
		if len(args) != 3 {
			return fmt.Errorf("trailing lseek args")
		}
		var err error
		if s.FD, err = parseNonNeg(args[0]); err != nil {
			return fmt.Errorf("bad fd %q", args[0])
		}
		if s.Offset, err = strconv.ParseInt(args[1], 10, 64); err != nil || s.Offset > maxIOOffset || s.Offset < -maxIOOffset {
			return fmt.Errorf("bad offset %q", args[1])
		}
		if !isIdentifier(args[2]) && !isAllDigits(args[2]) {
			return fmt.Errorf("bad whence %q", args[2])
		}
		s.Whence = args[2]
	case "close":
		if err := need(1); err != nil {
			return err
		}
		if len(args) != 1 {
			return fmt.Errorf("trailing close args")
		}
		var err error
		if s.FD, err = parseNonNeg(args[0]); err != nil {
			return fmt.Errorf("bad fd %q", args[0])
		}
	case "truncate", "ftruncate":
		if err := need(2); err != nil {
			return err
		}
		if len(args) != 2 {
			return fmt.Errorf("trailing %s args", s.Name)
		}
		var err error
		if s.Name == "truncate" {
			if s.Path, err = unquote(args[0]); err != nil {
				return fmt.Errorf("bad path %s", err)
			}
		} else if s.FD, err = parseNonNeg(args[0]); err != nil {
			return fmt.Errorf("bad fd %q", args[0])
		}
		if s.Offset, err = parseNonNeg(args[1]); err != nil {
			return fmt.Errorf("bad length %q (negative offset?)", args[1])
		}
	}
	return nil
}

// cutToken splits off the first whitespace-delimited token.
func cutToken(s string) (tok, rest string, found bool) {
	i := strings.IndexAny(s, " \t")
	if i < 0 {
		return s, "", false
	}
	return s[:i], strings.TrimLeft(s[i:], " \t"), true
}

func isAllDigits(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// isTimeToken reports a token shaped like a timestamp: digits with at
// least one '.' or ':' (a bare integer at line start is a pid instead).
func isTimeToken(s string) bool {
	if s == "" {
		return false
	}
	punct := false
	for _, c := range s {
		switch {
		case c >= '0' && c <= '9':
		case c == '.' || c == ':':
			punct = true
		default:
			return false
		}
	}
	return punct
}

func isIdentifier(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c >= '0' && c <= '9', c == '_':
		default:
			return false
		}
	}
	return true
}

// parseNonNeg parses a non-negative decimal integer, bounded by the
// byte-quantity sanity cap.
func parseNonNeg(s string) (int64, error) {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, err
	}
	if v < 0 {
		return 0, fmt.Errorf("negative value %d", v)
	}
	if v > maxIOOffset {
		return 0, fmt.Errorf("implausible value %d", v)
	}
	return v, nil
}

// parseStraceTime converts a timestamp token to milliseconds: either an
// absolute "seconds.fraction" epoch (strace -ttt) or a wall-clock
// "HH:MM:SS[.fraction]" (strace -t / -tt). Both rebase through the
// timeline, so only differences matter.
func parseStraceTime(tok string) (trace.Time, error) {
	if strings.Contains(tok, ":") {
		parts := strings.Split(tok, ":")
		if len(parts) != 3 {
			return 0, fmt.Errorf("bad clock time %q", tok)
		}
		h, err1 := strconv.ParseInt(parts[0], 10, 64)
		m, err2 := strconv.ParseInt(parts[1], 10, 64)
		sec, err3 := strconv.ParseFloat(parts[2], 64)
		if err1 != nil || err2 != nil || err3 != nil || h < 0 || m > 59 || m < 0 || sec < 0 || sec >= 60 {
			return 0, fmt.Errorf("bad clock time %q", tok)
		}
		return trace.Time((h*60+m)*60_000 + int64(sec*1000+0.5)), nil
	}
	sec, err := strconv.ParseFloat(tok, 64)
	if err != nil || sec < 0 {
		return 0, fmt.Errorf("bad epoch time %q", tok)
	}
	return trace.Time(sec*1000 + 0.5), nil
}

// scanArgs consumes the argument text up to the parenthesis that closes
// the syscall's argument list, tracking quotes (with backslash escapes)
// and bracket nesting, and returns the inside and the tail after ')'.
func scanArgs(s string) (args, tail string, err error) {
	depth := 1
	inQuote := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if inQuote {
			switch c {
			case '\\':
				i++ // skip the escaped byte
			case '"':
				inQuote = false
			}
			continue
		}
		switch c {
		case '"':
			inQuote = true
		case '(', '[', '{':
			depth++
		case ')', ']', '}':
			depth--
			if depth == 0 {
				if c != ')' {
					return "", "", fmt.Errorf("unbalanced %q", c)
				}
				return s[:i], s[i+1:], nil
			}
		}
	}
	return "", "", fmt.Errorf("unterminated argument list")
}

// splitArgs splits an argument list on top-level commas, respecting
// quotes and nesting, trimming surrounding space from each piece.
func splitArgs(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	var out []string
	depth := 0
	inQuote := false
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if inQuote {
			switch c {
			case '\\':
				i++
			case '"':
				inQuote = false
			}
			continue
		}
		switch c {
		case '"':
			inQuote = true
		case '(', '[', '{':
			depth++
		case ')', ']', '}':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	out = append(out, strings.TrimSpace(s[start:]))
	return out
}

// unquote strips the surrounding quotes from a path token, keeping any
// escape sequences verbatim (fidelity beats prettiness: the path is an
// opaque identity here).
func unquote(s string) (string, error) {
	if len(s) < 2 || s[0] != '"' || s[len(s)-1] != '"' {
		return "", fmt.Errorf("%q: not a quoted string", s)
	}
	body := s[1 : len(s)-1]
	// The closing quote must not itself be escaped, and quotes inside
	// must be: otherwise String()'s re-render would change the token.
	inEsc := false
	for i := 0; i < len(body); i++ {
		if inEsc {
			inEsc = false
			continue
		}
		switch body[i] {
		case '\\':
			inEsc = true
		case '"':
			return "", fmt.Errorf("%q: unescaped quote in string", s)
		}
	}
	if inEsc {
		return "", fmt.Errorf("%q: trailing escape in string", s)
	}
	return body, nil
}

// Strace adapts an strace-shaped syscall log to a trace.Source of class
// ClassLogical.
type Strace struct {
	ls *lineScanner
	em emitter
	tl timeline

	paths   map[string]trace.FileID // live path incarnations
	sizes   map[trace.FileID]int64  // learned file sizes
	fds     map[fdKey]*fdState      // open descriptors per pid
	users   map[int64]trace.UserID  // pid -> user
	nextID  uint64                  // file + open id seed
	lastRaw trace.Time              // last parsed raw timestamp
}

type fdKey struct{ pid, fd int64 }

type fdState struct {
	open   trace.OpenID
	file   trace.FileID
	mode   trace.Mode
	pos    int64
	maxPos int64
}

// advance moves the implicit sequential position by one transfer's
// bytes, saturating at the sanity cap so damaged logs with enormous
// return values cannot overflow positions.
func (st *fdState) advance(n int64) {
	st.pos += n
	if st.pos > maxIOOffset {
		st.pos = maxIOOffset
	}
	if st.pos > st.maxPos {
		st.maxPos = st.pos
	}
}

// NewStrace returns a syscall-log adapter reading lines from r.
func NewStrace(r io.Reader) *Strace {
	return &Strace{
		ls:    newLineScanner(r),
		paths: make(map[string]trace.FileID),
		sizes: make(map[trace.FileID]int64),
		fds:   make(map[fdKey]*fdState),
		users: make(map[int64]trace.UserID),
	}
}

// Class reports ClassLogical: syscall logs carry the full open/seek/
// close structure, so every paper metric applies.
func (a *Strace) Class() trace.Class { return trace.ClassLogical }

// Stats returns the ingest accounting so far.
func (a *Strace) Stats() Stats { return a.em.stats }

// NextBatch fills buf with the next native events.
func (a *Strace) NextBatch(buf []trace.Event) (int, error) { return a.em.fill(buf, a.parseLine) }

// parseLine consumes one input line, queueing the events of its syscall.
func (a *Strace) parseLine() error {
	line, n, err := a.ls.next()
	if err != nil {
		return err
	}
	a.em.stats.Lines++
	call, ok, perr := ParseStraceLine(line)
	if perr != nil {
		a.em.stats.Lines--
		return fmt.Errorf("line %d: %w", n, perr)
	}
	if !ok || call.Ret < 0 {
		a.em.stats.Skipped++ // noise, unknown syscall, or failed call
		return nil
	}
	a.ingest(call)
	return nil
}

// ingest translates one successful handled syscall. State changes with
// no native event (read/write position advances) still count as records.
func (a *Strace) ingest(c Syscall) {
	a.em.stats.Records++
	var t trace.Time
	if c.When != "" {
		a.lastRaw, _ = parseStraceTime(c.When) // validated during parse
	}
	t, clamped := a.tl.clamp(a.lastRaw)
	if clamped {
		a.em.stats.ClampedTimes++
	}
	user := a.userFor(c.Pid)

	switch c.Name {
	case "open", "openat", "creat":
		key := fdKey{c.Pid, c.Ret}
		if old, dup := a.fds[key]; dup {
			// The log missed a close (filtered output); end the stale
			// session so open ids stay well-formed.
			a.closeFD(key, old, t)
		}
		mode := trace.ReadOnly
		switch {
		case c.Name == "creat", strings.Contains(c.Flags, "O_WRONLY"):
			mode = trace.WriteOnly
		case strings.Contains(c.Flags, "O_RDWR"):
			mode = trace.ReadWrite
		}
		file, seen := a.paths[c.Path]
		if !seen {
			a.nextID++
			file = trace.FileID(a.nextID)
			a.paths[c.Path] = file
		}
		// A create is an open that makes the file new: creat, O_TRUNC,
		// or O_CREAT on a path never seen before.
		isCreate := c.Name == "creat" || strings.Contains(c.Flags, "O_TRUNC") ||
			(strings.Contains(c.Flags, "O_CREAT") && !seen)
		a.nextID++
		id := trace.OpenID(a.nextID)
		ev := trace.Event{Time: t, OpenID: id, File: file, User: user, Mode: mode}
		if isCreate {
			ev.Kind = trace.KindCreate
			a.sizes[file] = 0
		} else {
			ev.Kind = trace.KindOpen
			ev.Size = a.sizes[file]
		}
		a.em.push(ev)
		a.fds[key] = &fdState{open: id, file: file, mode: mode}

	case "read", "write":
		st, ok := a.fds[fdKey{c.Pid, c.FD}]
		if !ok {
			a.skipUnknownFD()
			return
		}
		st.advance(c.Ret)

	case "pread64", "pwrite64":
		st, ok := a.fds[fdKey{c.Pid, c.FD}]
		if !ok {
			a.skipUnknownFD()
			return
		}
		if c.Offset != st.pos {
			a.em.push(trace.Event{Time: t, Kind: trace.KindSeek, OpenID: st.open, OldPos: st.pos, NewPos: c.Offset})
			st.pos = c.Offset
		}
		st.advance(c.Ret)

	case "lseek":
		st, ok := a.fds[fdKey{c.Pid, c.FD}]
		if !ok {
			a.skipUnknownFD()
			return
		}
		a.em.push(trace.Event{Time: t, Kind: trace.KindSeek, OpenID: st.open, OldPos: st.pos, NewPos: c.Ret})
		st.pos = c.Ret

	case "close":
		key := fdKey{c.Pid, c.FD}
		st, ok := a.fds[key]
		if !ok {
			a.skipUnknownFD()
			return
		}
		a.closeFD(key, st, t)

	case "unlink", "unlinkat":
		file, seen := a.paths[c.Path]
		if !seen {
			// The file predates the log; its birth and size are unknown,
			// so the death would be meaningless.
			a.skipUnknownFD()
			return
		}
		a.em.push(trace.Event{Time: t, Kind: trace.KindUnlink, File: file})
		delete(a.paths, c.Path) // next create of the path is a new incarnation
		delete(a.sizes, file)

	case "truncate", "ftruncate":
		var file trace.FileID
		if c.Name == "truncate" {
			var seen bool
			if file, seen = a.paths[c.Path]; !seen {
				a.skipUnknownFD()
				return
			}
		} else {
			st, ok := a.fds[fdKey{c.Pid, c.FD}]
			if !ok {
				a.skipUnknownFD()
				return
			}
			file = st.file
		}
		a.em.push(trace.Event{Time: t, Kind: trace.KindTruncate, File: file, Size: c.Offset})
		a.sizes[file] = c.Offset

	case "execve":
		file, seen := a.paths[c.Path]
		if !seen {
			a.nextID++
			file = trace.FileID(a.nextID)
			a.paths[c.Path] = file
		}
		a.em.push(trace.Event{Time: t, Kind: trace.KindExec, File: file, User: user, Size: a.sizes[file]})
	}
}

// skipUnknownFD reclassifies the current record as skipped: the call
// referenced a descriptor or path the log never introduced.
func (a *Strace) skipUnknownFD() {
	a.em.stats.Records--
	a.em.stats.Skipped++
}

// closeFD emits the close event for a descriptor and folds what the
// session revealed into the file-size estimate.
func (a *Strace) closeFD(key fdKey, st *fdState, t trace.Time) {
	a.em.push(trace.Event{Time: t, Kind: trace.KindClose, OpenID: st.open, NewPos: st.pos})
	// Positions are evidence of size: a writer grew the file to at least
	// maxPos; a reader proved at least maxPos bytes exist.
	if st.maxPos > a.sizes[st.file] {
		a.sizes[st.file] = st.maxPos
	}
	delete(a.fds, key)
}

// userFor maps a pid to a UserID in first-appearance order.
func (a *Strace) userFor(pid int64) trace.UserID {
	if u, ok := a.users[pid]; ok {
		return u
	}
	u := trace.UserID(len(a.users) + 1)
	a.users[pid] = u
	return u
}
