// Package namei simulates the metadata machinery the paper's tracer could
// not see: pathname resolution through the 4.2 BSD directory (name) cache,
// the in-core i-node cache, and a small cache of directory content blocks.
//
// The paper's §3.2 lists three sources of disk I/O its analyses exclude —
// paging, i-nodes, and directories — and its conclusion estimates that
// "more than half of all disk block references could come from these other
// accesses", citing Leffler et al.'s measured 85% directory cache hit
// ratio. This package attaches to the simulated kernel as a MetaHook, so
// the same workload that produces the data trace also exercises name
// lookups, and reports the metadata disk I/O to set against the data-block
// I/O from the cache simulator.
//
// Model, following the paper's description: resolving a pathname costs, per
// component, a directory-cache probe; on a miss, the kernel reads the
// directory's descriptor (through the i-node cache) and the directory's
// contents (through a directory block cache) — "a minimum of two block
// accesses for each element in a file's pathname" when nothing is cached.
// Opening the file itself reads its i-node through the i-node cache, and
// operations that modify metadata (create, unlink, truncate, writes at
// close) write back the i-node and, for directory changes, the directory
// block.
package namei

import (
	"strings"
)

// Config sizes the three caches. Zero values select defaults comparable
// to a 1985 4.2 BSD kernel.
type Config struct {
	// NameEntries is the capacity of the name cache in (directory,
	// component) entries. 4.3 BSD shipped with a few hundred.
	NameEntries int
	// InodeEntries is the in-core i-node table size.
	InodeEntries int
	// DirBlocks is the number of directory content blocks cached.
	DirBlocks int
}

func (c *Config) fill() {
	if c.NameEntries <= 0 {
		c.NameEntries = 400
	}
	if c.InodeEntries <= 0 {
		c.InodeEntries = 200
	}
	if c.DirBlocks <= 0 {
		c.DirBlocks = 64
	}
}

// Stats is the simulator's outcome.
type Stats struct {
	// Resolves counts pathname resolutions; Components the directory
	// components examined (the file's final component is counted under
	// the i-node cache, not here).
	Resolves   int64
	Components int64
	// NameHits and NameMisses are directory-cache probes per component.
	NameHits   int64
	NameMisses int64
	// InodeHits and InodeMisses are i-node cache probes (directories on
	// name misses, plus every resolved file).
	InodeHits   int64
	InodeMisses int64
	// DirBlockHits and DirBlockMisses are directory-content reads on
	// name-cache misses.
	DirBlockHits   int64
	DirBlockMisses int64
	// InodeWrites and DirWrites are metadata write-backs.
	InodeWrites int64
	DirWrites   int64
}

// NameHitRatio returns the directory name cache hit ratio (Leffler et al.
// measured 85%).
func (s *Stats) NameHitRatio() float64 {
	total := s.NameHits + s.NameMisses
	if total == 0 {
		return 0
	}
	return float64(s.NameHits) / float64(total)
}

// InodeHitRatio returns the i-node cache hit ratio.
func (s *Stats) InodeHitRatio() float64 {
	total := s.InodeHits + s.InodeMisses
	if total == 0 {
		return 0
	}
	return float64(s.InodeHits) / float64(total)
}

// DiskReads returns metadata fetches from disk: i-node and directory
// block misses.
func (s *Stats) DiskReads() int64 { return s.InodeMisses + s.DirBlockMisses }

// DiskWrites returns metadata write-backs.
func (s *Stats) DiskWrites() int64 { return s.InodeWrites + s.DirWrites }

// DiskIOs returns all metadata disk operations.
func (s *Stats) DiskIOs() int64 { return s.DiskReads() + s.DiskWrites() }

// lruCache is a small string-keyed LRU used for all three caches.
type lruCache struct {
	cap   int
	items map[string]*lruNode
	head  *lruNode
	tail  *lruNode
}

type lruNode struct {
	key        string
	prev, next *lruNode
}

func newLRU(capacity int) *lruCache {
	return &lruCache{cap: capacity, items: make(map[string]*lruNode, capacity)}
}

func (c *lruCache) unlink(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *lruCache) pushFront(n *lruNode) {
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

// touch probes the cache, returning whether key was present, and inserts
// or refreshes it either way. A full cache reuses its evicted node.
func (c *lruCache) touch(key string) bool {
	if n, ok := c.items[key]; ok {
		c.unlink(n)
		c.pushFront(n)
		return true
	}
	var n *lruNode
	if len(c.items) >= c.cap {
		n = c.tail
		c.unlink(n)
		delete(c.items, n.key)
		n.key = key
	} else {
		n = &lruNode{key: key}
	}
	c.items[key] = n
	c.pushFront(n)
	return false
}

// Simulator implements kernel.MetaHook.
type Simulator struct {
	names  *lruCache // path prefix through the component: "/usr/include"
	inodes *lruCache // path of file or directory
	dirs   *lruCache // directory path -> contents block
	Stats  Stats
}

// New creates a simulator.
func New(cfg Config) *Simulator {
	cfg.fill()
	return &Simulator{
		names:  newLRU(cfg.NameEntries),
		inodes: newLRU(cfg.InodeEntries),
		dirs:   newLRU(cfg.DirBlocks),
	}
}

// Resolve walks the path through the caches (kernel.MetaHook). Empty
// components are skipped and "." is a component like any other; a path
// ending in "/" names no file, so no file i-node is read. The kernel's
// paths are clean — absolute, with no empty component — and for those
// every cache key is a substring of the path: a directory is the prefix
// before its entry's component, and a name-cache entry, the pair
// (directory, component), is the prefix through the component. So a
// resolve allocates nothing once the caches are full.
func (s *Simulator) Resolve(path string) {
	s.Stats.Resolves++
	walk := path
	if len(path) == 0 || path[0] != '/' || strings.Contains(path, "//") {
		walk = clean(path)
	}
	for start := 1; start < len(walk); {
		end := strings.IndexByte(walk[start:], '/')
		if end < 0 {
			// The final component: read the file's own i-node.
			if s.inodes.touch(path) {
				s.Stats.InodeHits++
			} else {
				s.Stats.InodeMisses++
			}
			return
		}
		end += start
		dir := walk[:max(start-1, 1)]
		s.Stats.Components++
		if s.names.touch(walk[:end]) {
			s.Stats.NameHits++
		} else {
			s.Stats.NameMisses++
			// Miss: read the directory's descriptor and contents.
			if s.inodes.touch(dir) {
				s.Stats.InodeHits++
			} else {
				s.Stats.InodeMisses++
			}
			if s.dirs.touch(dir) {
				s.Stats.DirBlockHits++
			} else {
				s.Stats.DirBlockMisses++
			}
		}
		start = end + 1
	}
}

// clean rewrites a path with empty components, or without its leading
// "/", into the clean path Resolve walks the same way: "/" and then the
// nonempty components joined by "/", with a trailing "/" when the path
// ends in an empty component.
func clean(path string) string {
	var b strings.Builder
	b.WriteByte('/')
	parts := strings.Split(strings.TrimPrefix(path, "/"), "/")
	for i, comp := range parts {
		if comp == "" {
			continue
		}
		b.WriteString(comp)
		if i < len(parts)-1 {
			b.WriteByte('/')
		}
	}
	return b.String()
}

// InodeUpdate records an i-node write-back (kernel.MetaHook).
func (s *Simulator) InodeUpdate() { s.Stats.InodeWrites++ }

// DirUpdate records a directory modification (kernel.MetaHook): the
// directory block is rewritten and its cached contents stay valid (the
// cache holds the new version; the write still goes to disk, as 4.2 BSD
// wrote directories synchronously).
func (s *Simulator) DirUpdate(dir string) {
	s.Stats.DirWrites++
	s.dirs.touch(dir)
}
