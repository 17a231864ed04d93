package trace

// Class is the taxonomy of trace sources, following the replay-trace
// classification literature: what level of the storage stack a trace
// was captured at determines which analyses its events can feed.
//
//   - A logical-level trace records file-system operations with their
//     open/seek/close structure (the paper's Table II vocabulary). Every
//     Section-5 reference-pattern metric is defined on it.
//   - A block-level trace records raw device requests (offset, size,
//     direction). There are no opens, no users, no file lifetimes: only
//     the transfer-level metrics — block I/O rates and the Section-6
//     cache simulations — are meaningful.
//   - A page-reference trace is a block trace degenerated further: a
//     bare reference string of fixed-size pages with synthesized time.
//
// Foreign-trace adapters (internal/trace/adapt) re-encode block- and
// page-class records into the native event vocabulary — one short
// open/seek/close sequence per request, so the xfer scanner reconstructs
// exactly the foreign transfers — but the class still travels with the
// source: the analyzer's metric sets check it before rendering, so a
// block trace can never produce a silently meaningless Table V.
type Class uint8

// The trace classes, from most to least structured.
const (
	// ClassLogical is a full logical-level trace: open/close sessions,
	// seeks, users, file births and deaths.
	ClassLogical Class = iota
	// ClassBlock is a device-level request trace: transfers only.
	ClassBlock
	// ClassPage is a page reference string: fixed-size transfers with
	// synthesized time.
	ClassPage
	numClasses
)

var classNames = [...]string{
	ClassLogical: "logical",
	ClassBlock:   "block",
	ClassPage:    "page",
}

// String returns the class name used in reports and error messages.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return "class(?)"
}

// Valid reports whether c is a defined class.
func (c Class) Valid() bool { return c < numClasses }

// ClassedSource is a Source that knows which trace class it carries.
// Foreign-trace adapters implement it; native sources do not need to,
// because the native format is logical by construction.
type ClassedSource interface {
	Source
	Class() Class
}
