// Package vfs implements the in-memory hierarchical file system that stands
// in for the 4.2 BSD fast file system in the simulated kernel.
//
// The file system provides the namespace and sizes the trace study
// depends on: inodes with stable, never-reused identifiers (the trace's
// file ids), hierarchical directories, unlink and truncation. It stores
// no file content: the tracer logged positions and sizes, never data, so
// a file is its size.
//
// The package is deliberately not safe for concurrent use; the simulated
// kernel is single-goroutine, like a 1985 VAX.
package vfs

import (
	"errors"
	"fmt"
	"strings"
)

// Ino is an inode number. Inode numbers are never reused, so an Ino
// identifies one incarnation of a file for the life of the file system,
// which is what the trace format's FileID requires.
type Ino uint64

// FileType distinguishes regular files from directories.
type FileType uint8

// File types.
const (
	TypeRegular FileType = iota
	TypeDir
)

// Errors returned by file system operations.
var (
	ErrNotExist = errors.New("vfs: file does not exist")
	ErrIsDir    = errors.New("vfs: is a directory")
	ErrNotDir   = errors.New("vfs: not a directory")
	ErrInvalid  = errors.New("vfs: invalid argument")
)

// Inode is one file or directory. All mutation goes through FS and
// Inode methods.
type Inode struct {
	ino      Ino
	typ      FileType
	size     int64
	children map[string]*Inode // directories only
}

// Ino returns the inode number.
func (n *Inode) Ino() Ino { return n.ino }

// Size returns the current file size in bytes (0 for directories).
func (n *Inode) Size() int64 { return n.size }

// IsDir reports whether the inode is a directory.
func (n *Inode) IsDir() bool { return n.typ == TypeDir }

// FS is an in-memory file system rooted at "/".
type FS struct {
	root    *Inode
	nextIno Ino
}

// New creates an empty file system containing only the root directory.
// The root has inode number 1; inode 0 is reserved as "no inode".
func New() *FS {
	fs := &FS{nextIno: 1}
	fs.root = fs.newInode(TypeDir)
	return fs
}

func (fs *FS) newInode(t FileType) *Inode {
	n := &Inode{ino: fs.nextIno, typ: t}
	fs.nextIno++
	if t == TypeDir {
		n.children = make(map[string]*Inode)
	}
	return n
}

// split cleans an absolute path into its components. It rejects relative
// and empty paths; the simulated kernel always works with absolute paths.
// Only cold setup paths (MkdirAll) use it; the hot resolution path is
// walk, which scans components in place without allocating.
func split(path string) ([]string, error) {
	if !strings.HasPrefix(path, "/") {
		return nil, fmt.Errorf("%w: path %q is not absolute", ErrInvalid, path)
	}
	raw := strings.Split(path, "/")
	parts := raw[:0]
	for _, p := range raw {
		switch p {
		case "", ".":
			// skip
		case "..":
			return nil, fmt.Errorf("%w: path %q contains ..", ErrInvalid, path)
		default:
			parts = append(parts, p)
		}
	}
	return parts, nil
}

// walk resolves all but the last component of path, returning the parent
// directory and the final name. A path naming the root returns (root, "").
// Components are scanned in place — name resolution is the single hottest
// operation the simulated kernel performs, and this path allocates
// nothing (the returned name is a substring of path). A missing component
// is the bare ErrNotExist: the workload probes paths that may not exist,
// and a message built per miss would be read by no one.
func (fs *FS) walk(path string) (dir *Inode, name string, err error) {
	if len(path) == 0 || path[0] != '/' {
		return nil, "", fmt.Errorf("%w: path %q is not absolute", ErrInvalid, path)
	}
	cur := fs.root
	i := 1
	for i < len(path) {
		j := i
		for j < len(path) && path[j] != '/' {
			j++
		}
		seg := path[i:j]
		i = j + 1
		switch seg {
		case "", ".":
			continue
		case "..":
			return nil, "", fmt.Errorf("%w: path %q contains ..", ErrInvalid, path)
		}
		if name != "" {
			next, ok := cur.children[name]
			if !ok {
				return nil, "", ErrNotExist
			}
			if !next.IsDir() {
				return nil, "", fmt.Errorf("%w: %q (component %q)", ErrNotDir, path, name)
			}
			cur = next
		}
		name = seg
	}
	return cur, name, nil
}

// Lookup resolves a path to its inode. A path that does not resolve
// returns the bare ErrNotExist, without allocating.
func (fs *FS) Lookup(path string) (*Inode, error) {
	dir, name, err := fs.walk(path)
	if err != nil {
		return nil, err
	}
	if name == "" {
		return dir, nil // the root
	}
	n, ok := dir.children[name]
	if !ok {
		return nil, ErrNotExist
	}
	return n, nil
}

// Create makes a regular file at path. If the file already exists it is
// truncated to zero length and (inode unchanged) returned with created ==
// false; this mirrors O_CREAT|O_TRUNC, which is the "create" system call
// the tracer logs. Creating over a directory is an error.
func (fs *FS) Create(path string) (n *Inode, created bool, err error) {
	dir, name, err := fs.walk(path)
	if err != nil {
		return nil, false, err
	}
	if name == "" {
		return nil, false, fmt.Errorf("%w: cannot create root", ErrInvalid)
	}
	if existing, ok := dir.children[name]; ok {
		if existing.IsDir() {
			return nil, false, fmt.Errorf("%w: %q", ErrIsDir, path)
		}
		existing.size = 0
		return existing, false, nil
	}
	n = fs.newInode(TypeRegular)
	dir.children[name] = n
	return n, true, nil
}

// MkdirAll creates a directory and any missing parents.
func (fs *FS) MkdirAll(path string) (*Inode, error) {
	parts, err := split(path)
	if err != nil {
		return nil, err
	}
	cur := fs.root
	for _, p := range parts {
		next, ok := cur.children[p]
		if !ok {
			next = fs.newInode(TypeDir)
			cur.children[p] = next
		} else if !next.IsDir() {
			return nil, fmt.Errorf("%w: %q (component %q)", ErrNotDir, path, p)
		}
		cur = next
	}
	return cur, nil
}

// Unlink removes the directory entry for a regular file and returns its
// inode. The inode survives while something still references it
// (kernel-held open files), matching UNIX semantics — the paper's
// short-lifetime temp files are routinely deleted while still open.
func (fs *FS) Unlink(path string) (*Inode, error) {
	dir, name, err := fs.walk(path)
	if err != nil {
		return nil, err
	}
	if name == "" {
		return nil, fmt.Errorf("%w: cannot unlink root", ErrInvalid)
	}
	n, ok := dir.children[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotExist, path)
	}
	if n.IsDir() {
		return nil, fmt.Errorf("%w: %q", ErrIsDir, path)
	}
	delete(dir.children, name)
	return n, nil
}

// Truncate changes the size of the regular file at path.
func (fs *FS) Truncate(path string, size int64) (*Inode, error) {
	if size < 0 {
		return nil, fmt.Errorf("%w: negative size %d", ErrInvalid, size)
	}
	n, err := fs.Lookup(path)
	if err != nil {
		return nil, err
	}
	if n.IsDir() {
		return nil, fmt.Errorf("%w: %q", ErrIsDir, path)
	}
	n.size = size
	return n, nil
}

// SetSize sets the file size; the simulated kernel calls it when a write
// passes end of file.
func (n *Inode) SetSize(size int64) {
	if size < 0 {
		panic("vfs: SetSize with negative size")
	}
	n.size = size
}

// Walk calls fn for every inode in the file system, the root included,
// in no particular order. It is how the static-scan analyses (in the
// style of Satyanarayanan's disk scans, which the paper compares against)
// enumerate the live file population; a caller that needs a stable order
// sorts what it collects.
func (fs *FS) Walk(fn func(n *Inode)) {
	var walk func(n *Inode)
	walk = func(n *Inode) {
		fn(n)
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(fs.root)
}
