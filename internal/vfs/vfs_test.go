package vfs

import (
	"errors"
	"reflect"
	"slices"
	"testing"
)

func TestCreateLookup(t *testing.T) {
	fs := New()
	n, created, err := fs.Create("/a")
	if err != nil || !created {
		t.Fatalf("Create: %v created=%v", err, created)
	}
	if n.IsDir() || n.Size() != 0 {
		t.Errorf("new file state wrong: dir=%v size=%d", n.IsDir(), n.Size())
	}
	got, err := fs.Lookup("/a")
	if err != nil || got != n {
		t.Fatalf("Lookup: %v", err)
	}
}

func TestCreateTruncatesExisting(t *testing.T) {
	fs := New()
	n, _, err := fs.Create("/a")
	if err != nil {
		t.Fatal(err)
	}
	n.SetSize(1000)
	ino := n.Ino()
	n2, created, err := fs.Create("/a")
	if err != nil {
		t.Fatal(err)
	}
	if created {
		t.Errorf("re-create reported created")
	}
	if n2.Ino() != ino {
		t.Errorf("re-create changed inode: %d -> %d", ino, n2.Ino())
	}
	if n2.Size() != 0 {
		t.Errorf("re-create did not truncate: size %d", n2.Size())
	}
}

func TestInodeNumbersNeverReused(t *testing.T) {
	fs := New()
	seen := map[Ino]bool{}
	for i := 0; i < 100; i++ {
		n, _, err := fs.Create("/f")
		if err != nil {
			t.Fatal(err)
		}
		// A fresh create only happens after unlink; re-creates reuse the
		// inode, so unlink each round to force fresh inodes.
		if seen[n.Ino()] && i > 0 {
			t.Fatalf("inode %d reused", n.Ino())
		}
		seen[n.Ino()] = true
		if _, err := fs.Unlink("/f"); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMkdirAndNesting(t *testing.T) {
	fs := New()
	if _, err := fs.MkdirAll("/usr"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.MkdirAll("/usr/include"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fs.Create("/usr/include/stdio.h"); err != nil {
		t.Fatal(err)
	}
	n, err := fs.Lookup("/usr/include/stdio.h")
	if err != nil {
		t.Fatal(err)
	}
	if n.IsDir() {
		t.Errorf("file reported as dir")
	}
	for _, dir := range []string{"/usr", "/usr/include"} {
		if d, err := fs.Lookup(dir); err != nil || !d.IsDir() {
			t.Errorf("Lookup(%q) = %v, %v; want a directory", dir, d, err)
		}
	}
}

func TestMkdirAll(t *testing.T) {
	fs := New()
	if _, err := fs.MkdirAll("/a/b/c/d"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Lookup("/a/b/c/d"); err != nil {
		t.Errorf("MkdirAll path missing: %v", err)
	}
	// Idempotent.
	if _, err := fs.MkdirAll("/a/b/c/d"); err != nil {
		t.Errorf("MkdirAll not idempotent: %v", err)
	}
	// Through a file is an error.
	if _, _, err := fs.Create("/a/file"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.MkdirAll("/a/file/x"); !errors.Is(err, ErrNotDir) {
		t.Errorf("MkdirAll through file = %v, want ErrNotDir", err)
	}
}

func TestPathErrors(t *testing.T) {
	fs := New()
	cases := []struct {
		op   func() error
		want error
	}{
		{func() error { _, err := fs.Lookup("relative"); return err }, ErrInvalid},
		{func() error { _, err := fs.Lookup("/a/../b"); return err }, ErrInvalid},
		{func() error { _, err := fs.Lookup("/missing"); return err }, ErrNotExist},
		{func() error { _, _, err := fs.Create("/"); return err }, ErrInvalid},
		{func() error { _, err := fs.Unlink("/"); return err }, ErrInvalid},
		{func() error { _, err := fs.Unlink("/missing"); return err }, ErrNotExist},
		{func() error { _, err := fs.Truncate("/missing", 0); return err }, ErrNotExist},
		{func() error { _, err := fs.Truncate("/", 0); return err }, ErrIsDir},
	}
	for i, c := range cases {
		if err := c.op(); !errors.Is(err, c.want) {
			t.Errorf("case %d: err = %v, want %v", i, err, c.want)
		}
	}
}

// A miss is the bare ErrNotExist and allocates nothing, whether the last
// component or an intermediate one is missing: the workload probes paths
// that may not exist on every program run.
func TestLookupMissAllocatesNothing(t *testing.T) {
	fs := New()
	if _, err := fs.MkdirAll("/usr/include"); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/usr/include/missing.h", "/usr/missing/stdio.h"} {
		if _, err := fs.Lookup(path); !errors.Is(err, ErrNotExist) {
			t.Fatalf("Lookup(%q) = %v, want ErrNotExist", path, err)
		}
		if allocs := testing.AllocsPerRun(100, func() { fs.Lookup(path) }); allocs != 0 {
			t.Errorf("Lookup(%q) miss: %v allocations, want 0", path, allocs)
		}
	}
}

func TestLookupRoot(t *testing.T) {
	fs := New()
	n, err := fs.Lookup("/")
	if err != nil || !n.IsDir() || n.Ino() != 1 {
		t.Fatalf("root lookup: %v %v", n, err)
	}
}

func TestCreateOverDirFails(t *testing.T) {
	fs := New()
	if _, err := fs.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fs.Create("/d"); !errors.Is(err, ErrIsDir) {
		t.Errorf("Create over dir = %v, want ErrIsDir", err)
	}
}

func TestUnlinkSemantics(t *testing.T) {
	fs := New()
	n, _, err := fs.Create("/tmp1")
	if err != nil {
		t.Fatal(err)
	}
	removed, err := fs.Unlink("/tmp1")
	if err != nil {
		t.Fatal(err)
	}
	if removed != n {
		t.Errorf("Unlink returned wrong inode")
	}
	if _, err := fs.Lookup("/tmp1"); !errors.Is(err, ErrNotExist) {
		t.Errorf("file still visible after unlink: %v", err)
	}
	// The inode is still usable by holders of a reference (open fds).
	n.SetSize(1)
	if n.Size() != 1 {
		t.Errorf("write to unlinked inode left size %d, want 1", n.Size())
	}
}

func TestUnlinkDirFails(t *testing.T) {
	fs := New()
	if _, err := fs.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Unlink("/d"); !errors.Is(err, ErrIsDir) {
		t.Errorf("Unlink dir = %v, want ErrIsDir", err)
	}
}

func TestWalk(t *testing.T) {
	fs := New()
	fs.MkdirAll("/a/b")
	fs.Create("/a/b/f1")
	fs.Create("/a/f2")
	fs.Create("/z")
	var want []Ino
	for _, p := range []string{"/", "/a", "/a/b", "/a/b/f1", "/a/f2", "/z"} {
		n, err := fs.Lookup(p)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, n.Ino())
	}
	var got []Ino
	fs.Walk(func(n *Inode) { got = append(got, n.Ino()) })
	slices.Sort(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Walk visited inodes %v, want each of %v once", got, want)
	}
}
