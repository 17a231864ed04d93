package trace

// Chunks is a list kept in chunks of chunkLen elements, every chunk full
// but the last. Appending never moves a full chunk, so a list whose
// final length is unknown is stored once instead of regrown; only the
// first chunk grows by append, so a short list stays short. The zero
// Chunks is empty and ready to use.
type Chunks[T any] [][]T

const chunkLen = 1 << 12

// Append adds v at the end of the list.
func (c *Chunks[T]) Append(v T) {
	n := len(*c)
	if n == 0 || len((*c)[n-1]) == chunkLen {
		var next []T
		if n > 0 {
			next = make([]T, 0, chunkLen)
		}
		*c = append(*c, next)
		n++
	}
	(*c)[n-1] = append((*c)[n-1], v)
}

// Len returns the number of elements in the list.
func (c Chunks[T]) Len() int {
	if len(c) == 0 {
		return 0
	}
	return (len(c)-1)*chunkLen + len(c[len(c)-1])
}

// Last returns the list's last element, which must exist.
func (c Chunks[T]) Last() *T {
	last := c[len(c)-1]
	return &last[len(last)-1]
}

// Flat copies the list into one slice of exactly its length, nil when
// the list is empty.
func (c Chunks[T]) Flat() []T {
	var out []T
	if n := c.Len(); n > 0 {
		out = make([]T, 0, n)
	}
	for _, chunk := range c {
		out = append(out, chunk...)
	}
	return out
}
