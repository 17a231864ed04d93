package workload

import (
	"fmt"
	"sync"

	"bsdtrace/internal/dist"
	"bsdtrace/internal/trace"
	"bsdtrace/internal/vfs"
)

// image is the file system population that exists before tracing begins:
// shared programs, headers, libraries, the big administrative files, and
// each user's home directory. It is built directly through the vfs (not
// the kernel) so that no trace events are generated for the setup, just as
// the 1985 traces began against an already-populated disk.
type image struct {
	// commands are the shared /bin programs, with a Zipf popularity
	// sampler: a few commands (the shell, the editor, ls, the compiler
	// passes) absorb most executions.
	commands []string
	cmdPick  *dist.Zipf

	// Specific tools the application models exec by name.
	cc, as, ld, editor, nroff, lpr, spice, mailer string

	// headers are /usr/include files, Zipf-popular (stdio.h et al).
	headers    []string
	headerPick *dist.Zipf

	// libs are the link-time libraries.
	libs []string

	// admin are the megabyte-scale administrative files ("network
	// tables, a log of all logins"): accessed by seek + small transfer.
	admin []string

	// loginLog is append-mode: every session start appends to it.
	loginLog string

	// status are the host status files the network daemon rewrites.
	status []string

	// archive is the cold long tail: man pages and old project files,
	// touched rarely and roughly uniformly. The slice is shared; see
	// archivePaths.
	archive []string

	// Per-user content, indexed by user id.
	srcFiles map[trace.UserID][]sourceFile
	docFiles map[trace.UserID][]string
	decks    map[trace.UserID][]sourceFile
	mailbox  map[trace.UserID]string
	homes    map[trace.UserID]string

	// files counts the regular files the image holds.
	files int
}

// sourceFile is a file a compile translates, with the path of the object
// file it compiles to, derived once when the image is built rather than
// on every compile and link.
type sourceFile struct {
	path, obj string
}

// objPath derives the object file path from a source path.
func objPath(srcPath string) string {
	if len(srcPath) > 2 && srcPath[len(srcPath)-2:] == ".c" {
		return srcPath[:len(srcPath)-2] + ".o"
	}
	return srcPath + ".o"
}

// mkfile creates path with the given size and counts it; setup-time
// errors are programming errors, so they panic.
func (img *image) mkfile(fs *vfs.FS, path string, size int64) {
	n, _, err := fs.Create(path)
	if err != nil {
		panic(fmt.Sprintf("workload: building image: %v", err))
	}
	n.SetSize(size)
	img.files++
}

// Shape of the archive: archiveDirs directories of archiveDirFiles files.
const (
	archiveDirs     = 30
	archiveDirFiles = 100
)

// archivePaths are the archive's file names, directory by directory. They
// are the same on every machine, so they are built once and shared by
// every image, the shards of a sharded run included; only the sizes are
// drawn per machine.
var archivePaths = sync.OnceValue(func() []string {
	paths := make([]string, 0, archiveDirs*archiveDirFiles)
	for d := 0; d < archiveDirs; d++ {
		for i := 0; i < archiveDirFiles; i++ {
			paths = append(paths, fmt.Sprintf("/archive/a%02d/f%02d", d, i))
		}
	}
	return paths
})

func (g *generator) buildImage(fs *vfs.FS) {
	src := g.src.Fork()
	img := &g.img
	img.srcFiles = make(map[trace.UserID][]sourceFile)
	img.docFiles = make(map[trace.UserID][]string)
	img.decks = make(map[trace.UserID][]sourceFile)
	img.mailbox = make(map[trace.UserID]string)
	img.homes = make(map[trace.UserID]string)

	for _, d := range []string{"/bin", "/lib", "/etc", "/tmp", "/usr/include", "/usr/spool/mail", "/u"} {
		if _, err := fs.MkdirAll(d); err != nil {
			panic(err)
		}
	}

	// Shared commands. Sizes are loosely modeled on 4.2 BSD binaries:
	// most utilities are tens of kilobytes, the compiler passes and the
	// CAD tools run to hundreds of kilobytes or more. The command list
	// is ordered by popularity for the Zipf sampler: the shell, the
	// editor, and ls dominate.
	type cmd struct {
		name string
		size int64
	}
	cmds := []cmd{
		{"sh", 60 << 10}, {"vi", 140 << 10}, {"ls", 25 << 10},
		{"cc", 90 << 10}, {"ccom", 180 << 10}, {"as", 70 << 10},
		{"ld", 80 << 10}, {"cpp", 50 << 10}, {"make", 65 << 10},
		{"cat", 12 << 10}, {"grep", 30 << 10}, {"mail", 55 << 10},
		{"nroff", 120 << 10}, {"lpr", 20 << 10}, {"rm", 10 << 10},
		{"cp", 12 << 10}, {"mv", 12 << 10}, {"ps", 45 << 10},
		{"who", 15 << 10}, {"finger", 35 << 10}, {"more", 30 << 10},
		{"diff", 40 << 10}, {"sort", 35 << 10}, {"awk", 75 << 10},
		{"sed", 30 << 10}, {"spice", 600 << 10}, {"magic", 900 << 10},
		{"drc", 350 << 10}, {"extract", 300 << 10}, {"dbx", 250 << 10},
		{"troff", 160 << 10}, {"eqn", 60 << 10}, {"tbl", 50 << 10},
		{"spell", 45 << 10}, {"man", 30 << 10}, {"date", 8 << 10},
		{"head", 10 << 10}, {"tail", 12 << 10}, {"wc", 10 << 10},
		{"uniq", 10 << 10},
	}
	for _, c := range cmds {
		path := "/bin/" + c.name
		img.mkfile(fs, path, c.size)
		img.commands = append(img.commands, path)
	}
	img.cmdPick = dist.NewZipf(src, 1.4, len(img.commands))
	img.cc = "/bin/cc"
	img.as = "/bin/as"
	img.ld = "/bin/ld"
	img.editor = "/bin/vi"
	img.nroff = "/bin/nroff"
	img.lpr = "/bin/lpr"
	img.spice = "/bin/spice"
	img.mailer = "/bin/mail"

	// Headers, Zipf-popular. A handful of system headers are read by
	// almost every compile.
	for i := 0; i < 80; i++ {
		path := fmt.Sprintf("/usr/include/h%02d.h", i)
		size := int64(src.LogNormal(2500, 0.9))
		if size < 200 {
			size = 200
		}
		img.mkfile(fs, path, size)
		img.headers = append(img.headers, path)
	}
	img.headerPick = dist.NewZipf(src, 1.5, len(img.headers))

	// Libraries.
	for _, l := range []struct {
		name string
		size int64
	}{{"libc.a", 500 << 10}, {"libm.a", 120 << 10}, {"libcurses.a", 180 << 10}} {
		path := "/lib/" + l.name
		img.mkfile(fs, path, l.size)
		img.libs = append(img.libs, path)
	}

	// The big administrative files: network tables and the login log,
	// each around a megabyte, accessed by position (paper Figure 2's
	// heavy tail).
	for _, a := range []struct {
		name string
		size int64
	}{{"nettab", 1100 << 10}, {"hosttab", 950 << 10}, {"wtmp", 1300 << 10}} {
		path := "/etc/" + a.name
		img.mkfile(fs, path, a.size)
		img.admin = append(img.admin, path)
	}
	img.loginLog = "/etc/wtmp"

	// The cold long tail: manual pages, old project trees, archived
	// data. A real 1985 disk held months of rarely-touched files; the
	// occasional access to one is a compulsory miss no cache size
	// avoids, and it is what keeps even a 16-Mbyte cache from a
	// near-zero miss ratio over a multi-day trace.
	img.archive = archivePaths()
	for d := 0; d < archiveDirs; d++ {
		if _, err := fs.MkdirAll(fmt.Sprintf("/archive/a%02d", d)); err != nil {
			panic(err)
		}
		for _, f := range img.archive[d*archiveDirFiles : (d+1)*archiveDirFiles] {
			size := int64(src.LogNormal(3500, 1.1))
			if size < 256 {
				size = 256
			}
			img.mkfile(fs, f, size)
		}
	}

	// Host status files, rewritten by the network daemon every three
	// minutes. They exist at trace start.
	for i := 0; i < g.prof.StatusFiles; i++ {
		path := fmt.Sprintf("/etc/status/host%02d", i)
		if i == 0 {
			if _, err := fs.MkdirAll("/etc/status"); err != nil {
				panic(err)
			}
		}
		img.mkfile(fs, path, 1800)
		img.status = append(img.status, path)
	}

	// Per-user homes. Every user gets a mailbox and a shell startup
	// file; developers get source trees, office users documents, CAD
	// users circuit decks. User ids start at 1.
	total := g.prof.Users()
	for u := 1; u <= total; u++ {
		uid := trace.UserID(u)
		home := fmt.Sprintf("/u/user%02d", u)
		if _, err := fs.MkdirAll(home); err != nil {
			panic(err)
		}
		img.homes[uid] = home
		img.mkfile(fs, home+"/.profile", 900)
		img.mkfile(fs, home+"/.login", 450)
		img.mkfile(fs, home+"/.exrc", 250)
		img.mkfile(fs, home+"/.mailrc", 300)

		mbox := fmt.Sprintf("/usr/spool/mail/user%02d", u)
		img.mkfile(fs, mbox, int64(src.LogNormal(4500, 0.8)))
		img.mailbox[uid] = mbox

		kind := g.userKind(uid)
		switch kind {
		case userDeveloper:
			if _, err := fs.MkdirAll(home + "/src"); err != nil {
				panic(err)
			}
			n := 16 + src.Intn(14)
			img.srcFiles[uid] = make([]sourceFile, 0, n)
			for i := 0; i < n; i++ {
				path := fmt.Sprintf("%s/src/mod%02d.c", home, i)
				img.mkfile(fs, path, sourceSize(src))
				img.srcFiles[uid] = append(img.srcFiles[uid], sourceFile{path, objPath(path)})
			}
		case userOffice:
			if _, err := fs.MkdirAll(home + "/doc"); err != nil {
				panic(err)
			}
			n := 10 + src.Intn(10)
			img.docFiles[uid] = make([]string, 0, n)
			for i := 0; i < n; i++ {
				path := fmt.Sprintf("%s/doc/memo%02d", home, i)
				img.mkfile(fs, path, docSize(src))
				img.docFiles[uid] = append(img.docFiles[uid], path)
			}
		case userCAD:
			if _, err := fs.MkdirAll(home + "/cad"); err != nil {
				panic(err)
			}
			n := 6 + src.Intn(6)
			img.decks[uid] = make([]sourceFile, 0, n)
			for i := 0; i < n; i++ {
				path := fmt.Sprintf("%s/cad/deck%02d", home, i)
				img.mkfile(fs, path, deckSize(src))
				img.decks[uid] = append(img.decks[uid], sourceFile{path, objPath(path)})
			}
		}
	}
}

// userKind assigns user ids to populations in profile order: developers
// first, then office users, then CAD users.
type userType int

const (
	userDeveloper userType = iota
	userOffice
	userCAD
)

func (g *generator) userKind(u trace.UserID) userType {
	n := int(u)
	switch {
	case n <= g.prof.Developers:
		return userDeveloper
	case n <= g.prof.Developers+g.prof.Office:
		return userOffice
	default:
		return userCAD
	}
}

// sourceSize draws a C source file size: median ~4 KB, occasionally tens
// of kilobytes. Short files dominate UNIX (paper Figure 2).
func sourceSize(src *dist.Source) int64 {
	s := int64(src.LogNormal(3000, 1.0))
	if s < 300 {
		s = 300
	}
	if s > 100<<10 {
		s = 100 << 10
	}
	return s
}

// docSize draws a document size: memos are a few kilobytes, reports tens.
func docSize(src *dist.Source) int64 {
	s := int64(src.LogNormal(4000, 1.0))
	if s < 500 {
		s = 500
	}
	if s > 300<<10 {
		s = 300 << 10
	}
	return s
}

// deckSize draws a CAD circuit description size: larger than source code.
func deckSize(src *dist.Source) int64 {
	s := int64(src.LogNormal(20000, 1.0))
	if s < 2000 {
		s = 2000
	}
	if s > 1<<20 {
		s = 1 << 20
	}
	return s
}
