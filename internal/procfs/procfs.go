// Package procfs models the pieces of a Linux system that SIREN's data
// collector reads: a file system holding executables and libraries with full
// stat metadata, a process table with PID allocation and exec() semantics,
// and /proc/<pid>/maps-style memory maps (both rendering and parsing).
//
// The real siren.so obtains the executable path from /proc/self/exe, process
// identity from getpid()/getppid()/getuid()/getgid(), file metadata from
// stat(2), and the memory map from /proc/self/maps. The simulation keeps
// those access paths intact so the collector code is identical in simulated
// and real-host modes.
package procfs

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// FileMeta mirrors the stat(2) fields SIREN records for executables.
type FileMeta struct {
	Inode uint64
	Size  int64
	Mode  uint32 // permission bits, e.g. 0o755
	UID   uint32 // owner
	GID   uint32
	Atime int64 // unix seconds
	Mtime int64
	Ctime int64
}

// File is one file in the simulated filesystem.
type File struct {
	Path string
	Data []byte
	Meta FileMeta
}

// FS is a flat, thread-safe simulated filesystem: path → file. Directories
// are implicit (any path prefix ending in '/').
type FS struct {
	mu        sync.RWMutex
	files     map[string]*File
	nextInode uint64
}

// NewFS returns an empty filesystem.
func NewFS() *FS {
	return &FS{files: make(map[string]*File), nextInode: 1000}
}

// ErrNotExist is returned for missing paths.
var ErrNotExist = errors.New("procfs: file does not exist")

// Install writes a file. If meta.Inode is zero a fresh inode is allocated;
// if meta.Size is zero it is set to len(data).
func (fs *FS) Install(path string, data []byte, meta FileMeta) *File {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if meta.Inode == 0 {
		fs.nextInode++
		meta.Inode = fs.nextInode
	}
	if meta.Size == 0 {
		meta.Size = int64(len(data))
	}
	if meta.Mode == 0 {
		meta.Mode = 0o755
	}
	f := &File{Path: path, Data: data, Meta: meta}
	fs.files[path] = f
	return f
}

// ReadFile returns the contents of path.
func (fs *FS) ReadFile(path string) ([]byte, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	f, ok := fs.files[path]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	return f.Data, nil
}

// Stat returns the metadata of path.
func (fs *FS) Stat(path string) (FileMeta, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	f, ok := fs.files[path]
	if !ok {
		return FileMeta{}, fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	return f.Meta, nil
}

// Exists reports whether path is present.
func (fs *FS) Exists(path string) bool {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	_, ok := fs.files[path]
	return ok
}

// List returns all paths with the given prefix, sorted.
func (fs *FS) List(prefix string) []string {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	var out []string
	for p := range fs.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// Len reports the number of installed files.
func (fs *FS) Len() int {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return len(fs.files)
}

// Region is one line of /proc/<pid>/maps.
type Region struct {
	Start, End uint64
	Perms      string // "r-xp" etc.
	Offset     uint64
	Dev        string // "fd:00"
	Inode      uint64
	Path       string // mapped file, "[heap]", "[stack]", or ""
}

// RenderMaps produces the text form of /proc/<pid>/maps for the regions.
func RenderMaps(regions []Region) string {
	return string(AppendMaps(nil, regions))
}

// AppendMaps appends RenderMaps(regions) to dst.
func AppendMaps(dst []byte, regions []Region) []byte {
	const pathColumn = "                    " // 20 spaces before a mapped path
	for _, r := range regions {
		dev := r.Dev
		if dev == "" {
			dev = "00:00"
		}
		dst = appendHex(dst, r.Start, 12)
		dst = append(dst, '-')
		dst = appendHex(dst, r.End, 12)
		dst = append(append(append(dst, ' '), r.Perms...), ' ')
		dst = appendHex(dst, r.Offset, 8)
		dst = append(append(append(dst, ' '), dev...), ' ')
		dst = strconv.AppendUint(dst, r.Inode, 10)
		if r.Path != "" {
			dst = append(append(dst, pathColumn...), r.Path...)
		}
		dst = append(dst, '\n')
	}
	return dst
}

// appendHex appends v in lower-case hex, zero-padded to width digits (the
// %0<width>x verb).
func appendHex(dst []byte, v uint64, width int) []byte {
	for n := max(1, (bits.Len64(v)+3)/4); n < width; n++ {
		dst = append(dst, '0')
	}
	return strconv.AppendUint(dst, v, 16)
}

// ParseMaps parses /proc/<pid>/maps text back into regions. Lines that do
// not match the maps grammar produce an error; empty input yields nil.
// Fields are runs of non-whitespace, and a region's path is its sixth.
//
// Every consolidation parses each MAPS record it meets, so the text is cut
// by hand: the lines and fields are substrings of text, and the one
// allocation is the result, sized by the line count. A line that holds a
// non-ASCII byte, where Unicode white space could separate fields, is split
// by strings.Fields instead.
func ParseMaps(text string) ([]Region, error) {
	var out []Region
	var fields [6]string
	rest := text
	for lineNo := 1; ; lineNo++ {
		line, tail, more := strings.Cut(rest, "\n")
		n, ascii := asciiFields(line, &fields)
		if !ascii {
			all := strings.Fields(line)
			n = len(all)
			copy(fields[:], all)
		}
		if n > 0 {
			if out == nil {
				out = make([]Region, 0, strings.Count(rest, "\n")+1)
			}
			r, err := parseRegion(lineNo, line, n, &fields)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
		if !more {
			return out, nil
		}
		rest = tail
	}
}

// asciiFields stores the first len(fields) white-space-separated fields of
// line in fields and returns how many line has, or ascii=false for a line
// holding a non-ASCII byte.
func asciiFields(line string, fields *[6]string) (n int, ascii bool) {
	start := -1 // the current field's first byte, -1 between fields
	for i := 0; i < len(line); i++ {
		c := line[i]
		if c >= 0x80 {
			return 0, false
		}
		if c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r' {
			if start >= 0 {
				if n < len(fields) {
					fields[n] = line[start:i]
				}
				n++
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		if n < len(fields) {
			fields[n] = line[start:]
		}
		n++
	}
	return n, true
}

// parseRegion parses line lineNo of a maps text, split into its n fields,
// the first six of which are in fields.
func parseRegion(lineNo int, line string, n int, fields *[6]string) (Region, error) {
	if n < 5 {
		return Region{}, fmt.Errorf("procfs: maps line %d: %q", lineNo, line)
	}
	lo, hi, ok := strings.Cut(fields[0], "-")
	if !ok {
		return Region{}, fmt.Errorf("procfs: maps line %d: bad address range %q", lineNo, fields[0])
	}
	start, err := strconv.ParseUint(lo, 16, 64)
	if err != nil {
		return Region{}, fmt.Errorf("procfs: maps line %d: %v", lineNo, err)
	}
	end, err := strconv.ParseUint(hi, 16, 64)
	if err != nil {
		return Region{}, fmt.Errorf("procfs: maps line %d: %v", lineNo, err)
	}
	offset, err := strconv.ParseUint(fields[2], 16, 64)
	if err != nil {
		return Region{}, fmt.Errorf("procfs: maps line %d: %v", lineNo, err)
	}
	inode, err := strconv.ParseUint(fields[4], 10, 64)
	if err != nil {
		return Region{}, fmt.Errorf("procfs: maps line %d: %v", lineNo, err)
	}
	r := Region{Start: start, End: end, Perms: fields[1], Offset: offset, Dev: fields[3], Inode: inode}
	if n >= 6 {
		r.Path = fields[5]
	}
	return r, nil
}

// MappedPaths returns the distinct file paths in the regions, in first-seen
// order, skipping anonymous and pseudo ("[heap]") mappings.
func MappedPaths(regions []Region) []string {
	seen := make(map[string]bool)
	var out []string
	for _, r := range regions {
		p := r.Path
		if p == "" || strings.HasPrefix(p, "[") || seen[p] {
			continue
		}
		seen[p] = true
		out = append(out, p)
	}
	return out
}
