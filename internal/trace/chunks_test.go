package trace

import (
	"slices"
	"testing"
)

// A Chunks list holds what a plain slice grown by append holds, at
// lengths on both sides of each chunk boundary; Last edits the list in
// place; and a full chunk never moves while the list grows.
func TestChunksMatchPlainAppend(t *testing.T) {
	for _, n := range []int{0, 1, chunkLen - 1, chunkLen, chunkLen + 1, 3*chunkLen + 5} {
		var c Chunks[int]
		var want []int
		var first *int
		for i := 0; i < n; i++ {
			c.Append(i)
			want = append(want, i)
			if i == chunkLen {
				first = &c[0][0]
			}
		}
		if n > 0 {
			*c.Last() = -1
			want[n-1] = -1
		}
		got := c.Flat()
		if c.Len() != n || !slices.Equal(got, want) || len(got) != cap(got) {
			t.Errorf("n=%d: Len %d, Flat %d elements with capacity %d, or they differ from plain append",
				n, c.Len(), len(got), cap(got))
		}
		if first != nil && first != &c[0][0] {
			t.Errorf("n=%d: the first chunk moved after it filled", n)
		}
		for k := 0; k+1 < len(c); k++ {
			if len(c[k]) != chunkLen {
				t.Errorf("n=%d: chunk %d of %d holds %d elements, want %d", n, k, len(c), len(c[k]), chunkLen)
			}
		}
	}
}
