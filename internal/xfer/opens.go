package xfer

import (
	"cmp"
	"math/bits"
	"slices"

	"bsdtrace/internal/trace"
)

// openTable holds the scanner's live opens by OpenID. The kernel numbers
// opens from 1 and never reuses a number, so the IDs run far past the
// few opens live at once, and a table by ID would grow with the trace.
// This one is open addressing with linear probing and backward-shift
// deletion: it stays under four slots per open at the peak of live
// opens, and it keeps each open's state in place from open to close.
type openTable struct {
	slots []openSlot // empty or a power of two long
	shift uint       // 64 - log2(len(slots))
	n     int
}

type openSlot struct {
	st   openState
	used bool
}

// home returns the slot where id's probe starts: Fibonacci hashing,
// which spreads consecutive IDs evenly.
func (t *openTable) home(id trace.OpenID) int {
	return int(uint64(id) * 0x9e3779b97f4a7c15 >> t.shift)
}

// find returns the slot holding id, or -1.
func (t *openTable) find(id trace.OpenID) int {
	if t.n == 0 {
		return -1
	}
	mask := len(t.slots) - 1
	for i := t.home(id); t.slots[i].used; i = (i + 1) & mask {
		if t.slots[i].st.summary.OpenID == id {
			return i
		}
	}
	return -1
}

// get returns id's state, or nil.
func (t *openTable) get(id trace.OpenID) *openState {
	if i := t.find(id); i >= 0 {
		return &t.slots[i].st
	}
	return nil
}

// put returns id's state and true if it has one, or false and a state
// newly added for it, zero but for its summary's OpenID.
func (t *openTable) put(id trace.OpenID) (*openState, bool) {
	if 2*(t.n+1) > len(t.slots) {
		t.resize(max(8, 2*len(t.slots)))
	}
	mask := len(t.slots) - 1
	i := t.home(id)
	for ; t.slots[i].used; i = (i + 1) & mask {
		if t.slots[i].st.summary.OpenID == id {
			return &t.slots[i].st, true
		}
	}
	t.slots[i].used = true
	t.slots[i].st.summary.OpenID = id
	t.n++
	return &t.slots[i].st, false
}

func (t *openTable) resize(size int) {
	old := t.slots
	t.slots = make([]openSlot, size)
	t.shift = uint(64 - bits.Len(uint(size-1)))
	mask := size - 1
	for k := range old {
		if !old[k].used {
			continue
		}
		i := t.home(old[k].st.summary.OpenID)
		for t.slots[i].used {
			i = (i + 1) & mask
		}
		t.slots[i] = old[k]
	}
}

// removeAt deletes the open in slot i, shifting back the entries after
// it whose probe would otherwise pass through the hole.
func (t *openTable) removeAt(i int) {
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].used; j = (j + 1) & mask {
		if h := t.home(t.slots[j].st.summary.OpenID); (j-h)&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = openSlot{}
	t.n--
}

// reset empties the table, keeping its slots.
func (t *openTable) reset() {
	clear(t.slots)
	t.n = 0
}

// sorted returns the live opens in OpenID order.
func (t *openTable) sorted() []*openState {
	out := make([]*openState, 0, t.n)
	for i := range t.slots {
		if t.slots[i].used {
			out = append(out, &t.slots[i].st)
		}
	}
	slices.SortFunc(out, func(a, b *openState) int {
		return cmp.Compare(a.summary.OpenID, b.summary.OpenID)
	})
	return out
}
